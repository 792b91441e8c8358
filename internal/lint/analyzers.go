package lint

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{AtomicWrite, Quarantine, CtxFlow, AllocFree, FacadeSync}
}
