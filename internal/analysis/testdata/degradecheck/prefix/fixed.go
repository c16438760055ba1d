package prefix

import (
	"devkit"
)

// This file holds the POST-fix shapes: the same six operations written the
// way PRs 4-5 left them. None of these may produce findings — the golden
// file pins that too.

// checkpointFrozenPayload checks the checkpoint write before recording
// success.
func (fs *FS) checkpointFrozenPayload(reqs []devkit.Request) (Report, error) {
	var rep Report
	if err := fs.writeHome(reqs); err != nil {
		return rep, err
	}
	rep.Fixed = len(reqs)
	return rep, nil
}

// barrierAborts degrades the volume when the barrier fails.
func (fs *FS) barrierAborts() error {
	if err := fs.barrier(); err != nil {
		fs.degrade("barrier failed; journal aborted")
	}
	return nil
}

// commitInline keeps the commit on the operation's own path.
func (fs *FS) commitInline() error {
	return fs.commit()
}

// scrubCountsOnlySuccess examines the repair write before counting.
func (fs *FS) scrubCountsOnlySuccess(targets []int64, buf []byte) ScrubReport {
	var rep ScrubReport
	for _, t := range targets {
		if err := fs.dev.WriteBlock(t, buf); err != nil {
			rep.Unrecovered++
			continue
		}
		rep.Repaired++
	}
	return rep
}

// repairCommitsThenCounts records Fixed only after the commit went
// through.
func (fs *FS) repairCommitsThenCounts(found int) (Report, error) {
	var rep Report
	if err := fs.commit(); err != nil {
		return rep, err
	}
	rep.Fixed = found
	return rep, nil
}

// waivedScrub drops the repair-write error on purpose; the waiver names
// the reason and degradecheck honors it.
//
//iron:degradeok corpus: the caller reconciles the counters against the device ledger afterwards
func (fs *FS) waivedScrub(t int64, buf []byte) ScrubReport {
	var rep ScrubReport
	fs.dev.WriteBlock(t, buf)
	rep.Repaired++
	return rep
}

// driverReconcilesThenCounts records Fixed only after the repair
// transaction, reached through the target interface, went through; the
// describe call before it is no commitpoint and constrains nothing.
func (d *driver) driverReconcilesThenCounts(found int) (Report, error) {
	var rep Report
	if err := d.t.reconcile(); err != nil {
		return rep, err
	}
	rep.Fixed = found
	err := d.t.describe()
	return rep, err
}

// setattrCommitsThenAnswers hands the commit funnel's error, reached
// through the generic store interface, straight to its caller.
func (ns *namespace[R]) setattrCommitsThenAnswers(ref R) error {
	if err := ns.s.storeNode(ref); err != nil {
		return err
	}
	return ns.s.maybeCommit()
}
