package ext3

import (
	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

// CheckImage is the crash-exploration consistency oracle (fsck.Driver's
// Oracle) for an image on dev: structural damage the file system did not
// itself flag comes back wrapped in vfs.ErrInconsistent — the "silently
// corrupt" verdict; detected damage (mount refusal, a sanity check firing
// during the scan) comes back as the file system's own error.
func CheckImage(dev disk.Device, opts Options) error {
	return New(dev, opts, iron.NewRecorder()).Oracle()
}
