package spf

// RepairStats counts the SPF work a Workspace has performed: fresh
// Dijkstra runs, incremental repairs, and the total nodes whose distance
// changed across effective repair phases. The counters are plain ints
// bumped unconditionally (a handful of adds per repair, far below the
// repair's own cost), so callers that own a workspace — e.g. a session
// worker during a recompute region — can diff snapshots around a region
// to attribute SPF work to one update without any registry indirection.
type RepairStats struct {
	Runs         int
	Batch        int
	ChangedNodes int
}

// Sub returns the element-wise difference s - prev.
func (s RepairStats) Sub(prev RepairStats) RepairStats {
	return RepairStats{
		Runs:         s.Runs - prev.Runs,
		Batch:        s.Batch - prev.Batch,
		ChangedNodes: s.ChangedNodes - prev.ChangedNodes,
	}
}

// Add returns the element-wise sum s + o.
func (s RepairStats) Add(o RepairStats) RepairStats {
	return RepairStats{
		Runs:         s.Runs + o.Runs,
		Batch:        s.Batch + o.Batch,
		ChangedNodes: s.ChangedNodes + o.ChangedNodes,
	}
}

// Stats returns the workspace's cumulative repair statistics.
func (ws *Workspace) Stats() RepairStats { return ws.stats }
