package check

import (
	"fmt"

	"xcache/internal/sim"
)

// invariants audits the kernel after every step: per-queue conservation
// (pushes − pops == occupancy, nothing staged after commit, occupancy ≤
// capacity) plus each component's own CheckInvariants (controller wake
// and action budgets, MSHR ledger, DRAM timing protocol, address-cache
// MSHR ledger). The first violation is latched; the supervised Run aborts
// on it with a StallReport so the failing cycle's full machine state is
// preserved.
type invariants struct {
	queues   []sim.QueueInfo
	checkers []selfChecker
	err      error
}

func newInvariants(k *sim.Kernel) *invariants {
	v := &invariants{queues: k.Queues()}
	for _, c := range k.Components() {
		if sc, ok := c.(selfChecker); ok {
			v.checkers = append(v.checkers, sc)
		}
	}
	return v
}

// AfterStep implements sim.Observer.
func (v *invariants) AfterStep(c sim.Cycle) {
	if v.err != nil {
		return
	}
	for _, q := range v.queues {
		if q.Pushes()-q.Pops() != uint64(q.Len()) {
			v.err = fmt.Errorf("cycle %d: queue %s conservation: %d pushes - %d pops != occupancy %d",
				c, q.Name(), q.Pushes(), q.Pops(), q.Len())
			return
		}
		if q.StagedLen() != 0 {
			v.err = fmt.Errorf("cycle %d: queue %s holds %d staged entries after commit",
				c, q.Name(), q.StagedLen())
			return
		}
		if q.Len() > q.Cap() {
			v.err = fmt.Errorf("cycle %d: queue %s occupancy %d exceeds capacity %d",
				c, q.Name(), q.Len(), q.Cap())
			return
		}
	}
	for _, sc := range v.checkers {
		if err := sc.CheckInvariants(c); err != nil {
			v.err = err
			return
		}
	}
}
