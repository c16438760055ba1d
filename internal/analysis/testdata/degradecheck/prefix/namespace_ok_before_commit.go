package prefix

// The namespace shape: a shared path-walk layer reaches the file system's
// operation-facing commit funnel through a generic store interface, typed
// over the file system's own object reference. No instantiation of the
// interface is in sight where the layer calls it, so the implementations
// are found by method name and arity. Every implementation of maybeCommit
// in the module is a commitpoint, so the call through the interface is one
// too — and a setattr that answers nil while that call's error is still
// unexamined reports a chmod that may never have reached disk.

// store is the file system as the corpus namespace sees it.
type store[R any] interface {
	storeNode(ref R) error
	maybeCommit() error
}

// maybeCommit is the corpus operation-facing commit funnel.
//
//iron:commitpoint corpus operation-facing commit funnel
func (fs *FS) maybeCommit() error { return fs.commit() }

func (fs *FS) storeNode(ref uint32) error { return nil }

type namespace[R any] struct {
	s     store[R]
	quiet bool
}

func (ns *namespace[R]) setattrOKBeforeCommit(ref R) error {
	if err := ns.s.storeNode(ref); err != nil {
		return err
	}
	err := ns.s.maybeCommit()
	if ns.quiet {
		return nil // success while the commit's error is still unexamined
	}
	return err
}
