package yarn

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// RunWrappingStores is Run on the engine goroutine alone, with each node's
// checkpoint store seen through wrap from the first job on: the hook that
// puts a misbehaving store under the AMs for tests outside the package.
func RunWrappingStores(cfg Config, jobs []cluster.JobSpec, wrap func(storage.Store) storage.Store) (*Result, error) {
	c, err := newCluster(cfg, false)
	if err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		n.store = wrap(n.store)
	}
	for i := range jobs {
		c.engine.At(jobs[i].Submit, sim.Handler(newAppMaster(c, &jobs[i]).submit))
	}
	c.finish(c.engine.Run())
	return c.res, nil
}
