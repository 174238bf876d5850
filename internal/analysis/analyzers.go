package analysis

// All returns the full analyzer suite in stable (alphabetical) order.
func All() []*Analyzer {
	return []*Analyzer{CowPub, CtxRule, ErrCheck, FailClosed, HotAlloc, HotCall, MetricReg, NoDeterm, SleepBan}
}
