// Package ixt3 is the public face of the paper's prototype IRON file
// system (§6): Linux ext3 extended with in-disk checksumming, metadata
// replication, parity protection for user data, and transactional
// checksums. The implementation lives in the ext3 package — ixt3 *is* ext3
// with the IRON options enabled and the stock failure-policy bugs fixed,
// exactly as the paper built it ("in the process of building ixt3, we also
// fixed numerous bugs within ext3").
package ixt3

import (
	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/iron"
)

// Features selects which IRON mechanisms are active, matching the rows of
// the paper's Table 6: Mc (metadata checksums), Dc (data checksums),
// Mr (metadata replication), Dp (data parity), Tc (transactional
// checksums).
type Features struct {
	Mc, Dc, Mr, Dp, Tc bool
}

// All returns every feature enabled — the full ixt3 of Figure 3.
func All() Features { return Features{Mc: true, Dc: true, Mr: true, Dp: true, Tc: true} }

// Label renders the feature set in the paper's Table 6 notation, e.g.
// "Mc Mr Dc Dp Tc"; the empty set renders as "(ext3)".
func (f Features) Label() string {
	s := ""
	add := func(on bool, tag string) {
		if on {
			if s != "" {
				s += " "
			}
			s += tag
		}
	}
	add(f.Mc, "Mc")
	add(f.Mr, "Mr")
	add(f.Dc, "Dc")
	add(f.Dp, "Dp")
	add(f.Tc, "Tc")
	if s == "" {
		return "(ext3)"
	}
	return s
}

// options converts a feature set to the underlying implementation options.
// ixt3 always runs with ext3's failure-handling bugs repaired.
func (f Features) options() ext3.Options {
	return ext3.Options{
		MetaChecksum: f.Mc,
		DataChecksum: f.Dc,
		MetaReplica:  f.Mr,
		DataParity:   f.Dp,
		TxnChecksum:  f.Tc,
		FixBugs:      true,
	}
}

// Mkfs formats dev with the on-disk regions the feature set requires.
func Mkfs(dev disk.Device, f Features) error {
	return ext3.Mkfs(dev, f.options())
}

// New returns an ixt3 instance on a formatted device. Mount before use.
func New(dev disk.Device, f Features, rec *iron.Recorder) *ext3.FS {
	return ext3.New(dev, f.options(), rec)
}

// NewResolver returns the gray-box block-type resolver for ixt3 images
// (identical layout to ext3).
func NewResolver(raw *disk.Disk) *faultinject.TypeMap { return ext3.NewResolver(raw) }

// Check is the crash-exploration consistency oracle for an ixt3 image
// with the given feature set: mount (running recovery, with Tc's
// transaction checksum vetting the replay when enabled) and scan for
// structural damage. See ext3.CheckImage for the error contract.
func Check(dev disk.Device, f Features) error {
	return ext3.CheckImage(dev, f.options())
}
