// Package cli factors out the flag vocabulary and I/O plumbing shared by
// every command in this repository. The eleven mains each grew their own
// copies of the same four idioms — a validated -fs name (with "all"
// fan-out), -seed defaulting to the fault layer's fixed seed, -trace
// NDJSON wiring ("-" = stdout, buffered file otherwise), and
// deterministic two-space-indent JSON emission — and the copies had begun
// to drift (some accepted "" as all, some didn't; some flushed trace
// buffers on error paths, some lost the tail). One package, one behavior.
package cli

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ironfs/internal/faultinject"
)

// FSFlag registers the standard -fs flag. domain lists the legal names in
// display order; the usage string advertises them plus "all".
func FSFlag(def string, domain []string) *string {
	return flag.String("fs", def,
		fmt.Sprintf("file system (%s, all)", strings.Join(domain, ", ")))
}

// SeedFlag registers the standard -seed flag with the fault layer's fixed
// default, so every tool's runs replay exactly by logging one integer.
func SeedFlag(usage string) *int64 {
	return flag.Int64("seed", faultinject.DefaultSeed, usage)
}

// TraceFlag registers the standard -trace flag.
func TraceFlag(usage string) *string { return flag.String("trace", "", usage) }

// JSONFlag registers the standard -json flag.
func JSONFlag(usage string) *bool { return flag.Bool("json", false, usage) }

// OutFlag registers the standard -out flag.
func OutFlag(usage string) *string { return flag.String("out", "", usage) }

// ResolveFS expands a -fs value against the tool's legal names: "all" (or
// an empty value) selects the whole domain in order, anything else must
// be a member. The error names both the bad value and the domain.
func ResolveFS(value string, domain []string) ([]string, error) {
	if value == "" || value == "all" {
		return append([]string(nil), domain...), nil
	}
	for _, name := range domain {
		if name == value {
			return []string{value}, nil
		}
	}
	return nil, fmt.Errorf("unknown file system %q (have %s, all)",
		value, strings.Join(domain, ", "))
}

// nopClose is the closer for writers the caller does not own (stdout).
func nopClose() error { return nil }

// TraceWriter opens a -trace destination: "" yields a nil writer (tracing
// off), "-" yields stdout, anything else a buffered file. The returned
// close function flushes and closes; call it on every path, including
// errors, or the buffer tail is lost.
func TraceWriter(path string) (io.Writer, func() error, error) {
	switch path {
	case "":
		return nil, nopClose, nil
	case "-":
		return os.Stdout, nopClose, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// OutputWriter opens a -out destination: "" and "-" yield stdout,
// anything else a buffered file, with the same close contract as
// TraceWriter.
func OutputWriter(path string) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, nopClose, nil
	}
	return TraceWriter(path)
}

// WriteJSON emits v in the repository's canonical JSON shape — two-space
// indent, trailing newline — the byte-identity gates in check.sh and CI
// diff these emissions directly, so every tool must format identically.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// EmitJSON writes v as canonical JSON to a -out destination.
func EmitJSON(path string, v any) error {
	w, closeFn, err := OutputWriter(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(w, v); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

// Fatalf prints "tool: message" to stderr and exits 1 (runtime failure).
func Fatalf(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}

// Usagef prints "tool: message" to stderr and exits 2 (bad invocation).
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(2)
}
