// Online repair: background scrub/fsck of a hosted volume under live
// traffic, throttled to an I/O-share cap so repair never starves the
// tenants the volume (and its neighbors on the shared virtual clock)
// are serving. This is the serving-tier face of the paper's R_Repair
// recovery level — checking and fixing happen while the service stays
// up, not behind an unmount.
package serve

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
)

// ScrubConfig bounds one background scrub.
type ScrubConfig struct {
	// Share caps the fraction of elapsed virtual time the scrub may
	// spend doing I/O (default 0.25). All simulated time is on one
	// clock, so this is also the worst-case slowdown the scrub can
	// impose on other volumes' tenants.
	Share float64
	// ChunkBlocks is the media-scan granularity per step (default 64).
	// Smaller chunks track the share cap more tightly.
	ChunkBlocks int64
	// Repair fixes what the consistency check finds; false stops after
	// reporting.
	Repair bool
}

// ScrubPhase names the scrub state machine's stages.
type ScrubPhase string

const (
	// ScrubScan is the chunked media read of every block, surfacing
	// latent sector errors the way a disk scrubber does (§2.3).
	ScrubScan ScrubPhase = "scan"
	// ScrubCheck is the structural consistency check (fsck's read half).
	ScrubCheck ScrubPhase = "check"
	// ScrubRepair is the transactional fix of what check found.
	ScrubRepair ScrubPhase = "repair"
	// ScrubDone is terminal: inspect ScrubStatus for the outcome.
	ScrubDone ScrubPhase = "done"
)

// ScrubStatus reports a scrub's progress and outcome.
type ScrubStatus struct {
	Volume string
	Phase  ScrubPhase
	// Scanned/Total track the media-scan phase in blocks.
	Scanned int64
	Total   int64
	// BadBlocks counts unreadable blocks found by the scan.
	BadBlocks int
	// Problems is the consistency check's finding count; Repaired and
	// Unfixed split the repair outcome.
	Problems int
	Repaired int
	Unfixed  int
	// Used is scrub I/O time consumed; Elapsed is virtual time since
	// the scrub started. Used/Elapsed stays under the configured share
	// (plus at most one chunk or one check phase of overshoot).
	Used    disk.Duration
	Elapsed disk.Duration
	// Err is the terminal error, if the scrub failed.
	Err error
}

type scrubState struct {
	cfg     ScrubConfig
	phase   ScrubPhase
	started disk.Duration
	used    disk.Duration
	next    int64 // media-scan cursor
	status  ScrubStatus
}

// StartScrub begins a background scrub of a hosted volume. The scrub
// makes progress only through ScrubStep calls, which the serving loop
// interleaves with Dispatch — there is no hidden goroutine, so runs
// stay deterministic.
func (s *Server) StartScrub(volumeID string, cfg ScrubConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[volumeID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVolume, volumeID)
	}
	if v.scrub != nil && v.scrub.phase != ScrubDone {
		return fmt.Errorf("serve: volume %s already scrubbing", volumeID)
	}
	if _, ok := fs.AsRepairer(v.vol.FS); !ok {
		return fmt.Errorf("serve: volume %s (%s) has no repairer", volumeID, v.vol.Name)
	}
	if cfg.Share <= 0 || cfg.Share > 1 {
		cfg.Share = 0.25
	}
	if cfg.ChunkBlocks <= 0 {
		cfg.ChunkBlocks = 64
	}
	v.scrub = &scrubState{
		cfg:     cfg,
		phase:   ScrubScan,
		started: s.clk.Now(),
		status: ScrubStatus{
			Volume: volumeID,
			Total:  v.vol.Disk.NumBlocks(),
		},
	}
	return nil
}

// ScrubStatus reports the named volume's scrub state; ok is false when
// no scrub was ever started there.
func (s *Server) ScrubStatus(volumeID string) (ScrubStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[volumeID]
	if !ok || v.scrub == nil {
		return ScrubStatus{}, false
	}
	st := v.scrub.status
	st.Phase = v.scrub.phase
	st.Used = v.scrub.used
	st.Elapsed = s.clk.Now() - v.scrub.started
	return st, true
}

// ScrubStep advances every active scrub that has budget, by at most one
// chunk or one phase each. It returns true if any scrub did work. The
// budget rule is cumulative: a scrub may spend up to Share × elapsed
// total I/O time, so a step is allowed only while used < allowed —
// bursty phases (the consistency check is one indivisible call) then
// pause the scrub until elapsed time amortizes them back under the cap.
func (s *Server) ScrubStep() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	worked := false
	for _, v := range s.vols {
		sc := v.scrub
		if sc == nil || sc.phase == ScrubDone {
			continue
		}
		allowed := disk.Duration(sc.cfg.Share * float64(s.clk.Now()-sc.started))
		if sc.used >= allowed && sc.used > 0 {
			continue // over budget: let traffic run until the cap recovers
		}
		t0 := s.clk.Now()
		s.scrubAdvance(v, sc)
		sc.used += s.clk.Now() - t0
		s.count("serve_scrub_steps", "volume", v.id, 1)
		worked = true
	}
	return worked
}

// scrubAdvance runs one unit of scrub work. Caller holds s.mu.
func (s *Server) scrubAdvance(v *volume, sc *scrubState) {
	switch sc.phase {
	case ScrubScan:
		buf := make([]byte, 4096)
		end := sc.next + sc.cfg.ChunkBlocks
		if end > sc.status.Total {
			end = sc.status.Total
		}
		for b := sc.next; b < end; b++ {
			// Scan through the volume's device tower (below the FS, above
			// the fault layer) so latent sector errors fire like any
			// foreground read would.
			if err := v.vol.Dev.ReadBlock(b, buf); err != nil {
				sc.status.BadBlocks++
			}
		}
		sc.next = end
		sc.status.Scanned = end
		if end >= sc.status.Total {
			sc.phase = ScrubCheck
		}
	case ScrubCheck:
		rep, _ := fs.AsRepairer(v.vol.FS)
		probs, err := rep.CheckConsistency()
		if err != nil {
			sc.status.Err = fmt.Errorf("serve: scrub %s: check: %w", v.id, err)
			sc.phase = ScrubDone
			return
		}
		sc.status.Problems = len(probs)
		s.count("serve_scrub_problems", "volume", v.id, int64(len(probs)))
		if !sc.cfg.Repair || len(probs) == 0 {
			sc.phase = ScrubDone
			return
		}
		sc.phase = ScrubRepair
	case ScrubRepair:
		rep, _ := fs.AsRepairer(v.vol.FS)
		report, err := rep.Repair()
		if err != nil {
			sc.status.Err = fmt.Errorf("serve: scrub %s: repair: %w", v.id, err)
			sc.phase = ScrubDone
			return
		}
		sc.status.Repaired = len(report.Fixed)
		sc.status.Unfixed = len(report.Unrecovered)
		s.count("serve_scrub_repaired", "volume", v.id, int64(len(report.Fixed)))
		sc.phase = ScrubDone
	}
}
