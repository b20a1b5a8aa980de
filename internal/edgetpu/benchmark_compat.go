package edgetpu

// The two accessors below are all that remains of the PR 10 intra-op
// kernel pool. Kernels now run one instruction on one dispatch worker,
// so there is no width and no pool. They stay only because the frozen
// benchmark/ module calls them (main.go's env header, workload.go's
// pool counters) and may not be edited; the next benchmark-definition
// PR drops those calls and deletes this file.

// KernelThreads reports the intra-op kernel width, which is always 1.
func KernelThreads() int { return 1 }

// KernelPoolStats is the counter snapshot benchmark/ reads.
type KernelPoolStats struct {
	Jobs, SerialFallbacks int64
}

// KernelPoolSnapshot returns zero counters: there is no pool.
func KernelPoolSnapshot() KernelPoolStats { return KernelPoolStats{} }
