package fsck

// RepairHooks bracket the device-write window of one repair transaction.
// A harness (the ironhunt fsck crash-idempotence mode) installs them to
// arm a crash device exactly when repair writes start reaching the media
// and disarm it when the transaction is over, so induced crashes land
// inside the repair — the window where a non-transactional fsck would
// leave the volume half-repaired.
//
// Both hooks are optional and run under the file system's lock: keep them
// trivial (flip a counter, arm a device) and never call back into the FS.
type RepairHooks struct {
	// Begin runs just before the repair pass stages its first fix.
	Begin func()
	// End runs after the repair transaction finished — committed,
	// aborted, or degraded — before the post-repair verdict is formed.
	End func()
}

// enter invokes Begin, nil-safely.
func (h *RepairHooks) enter() {
	if h != nil && h.Begin != nil {
		h.Begin()
	}
}

// exit invokes End, nil-safely.
func (h *RepairHooks) exit() {
	if h != nil && h.End != nil {
		h.End()
	}
}
