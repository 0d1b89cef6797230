package lint

// All returns the full preemptlint suite in its canonical order. The
// order only affects tie-breaking in diagnostic sort, not semantics.
func All() []*Analyzer {
	return []*Analyzer{
		VClock,
		SentinelErr,
		LockIO,
		MetricName,
		CtxLeak,
		MapIter,
		RandSrc,
		FloatOrder,
	}
}
