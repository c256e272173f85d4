package gp

// RunSweep scores chunk as champion refinement scores one round's
// parameter-only proposals: one sweep chunk through runCluster.
func (e *Engine) RunSweep(chunk []*Individual) { e.runCluster(chunk, true) }
