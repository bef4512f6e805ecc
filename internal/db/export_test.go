package db

// NewSeedStore exposes the seed reference evaluator (seed_test.go) to
// external test packages: a Store answering every query over in's
// tuples without compiled plans.
func NewSeedStore(in *Instance) Store { return newSeedStore(in) }
