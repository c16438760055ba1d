package prefix

// The seam shape: a shared repair driver reaches the file system's repair
// transaction through an interface. Every implementation of reconcile in
// the module is a commitpoint, so the interface call is one too — and a
// driver that records Fixed before it is the PR5 bug again, one level up.

// target is the file system as the corpus driver sees it.
type target interface {
	reconcile() error
	// describe has an implementation that is not a commitpoint: calls
	// to it are not commitpoint calls.
	describe() error
}

// reconcile is the corpus repair transaction.
//
//iron:commitpoint corpus repair transaction
func (fs *FS) reconcile() error { return fs.commit() }

func (fs *FS) describe() error { return nil }

type driver struct{ t target }

func (d *driver) repairFixedBeforeReconcile(found int) (Report, error) {
	var rep Report
	rep.Fixed = found // recorded before the repair transaction's outcome exists
	if err := d.t.reconcile(); err != nil {
		return rep, err
	}
	return rep, nil
}
