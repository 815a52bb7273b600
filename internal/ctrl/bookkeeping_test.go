package ctrl

import (
	"strings"
	"testing"

	"xcache/internal/dataram"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// auditRun drives the rig with one request per cycle, op and key chosen
// by next, and requires CheckInvariants — including the bookkeeping
// audit of pendMask, camMask/camKey and liveRegs — to hold after every
// cycle until n responses have arrived. It reports whether any walker
// was ever seen trapped with a fill still outstanding.
func auditRun(t *testing.T, r *rig, n int, next func(i int) (MetaOp, uint64)) (sawDraining bool) {
	t.Helper()
	i, got := 0, 0
	r.k.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		if i >= n {
			return
		}
		op, key := next(i)
		if r.c.ReqQ.Push(MetaReq{ID: uint64(i), Op: op, Key: metatag.Key{key}, Payload: uint64(i), Issued: cy}) {
			i++
		}
	}))
	ok := r.k.RunUntil(func() bool {
		if err := r.c.CheckInvariants(r.k.Cycle()); err != nil {
			t.Fatalf("cycle %d: %v", r.k.Cycle(), err)
		}
		for _, w := range r.c.walkers {
			sawDraining = sawDraining || (w.trapped && w.fills > 0)
		}
		for {
			if _, ok := r.c.RespQ.Pop(); !ok {
				break
			}
			got++
		}
		return got >= n && r.c.Idle()
	}, 500000)
	if !ok {
		t.Fatalf("%d/%d responses before the cycle budget", got, n)
	}
	return sawDraining
}

// TestBookkeepingAuditHolds runs mixed streams over 70 walkers (two
// bitset words) with the per-cycle audit on: misses, merges, hits,
// not-found aborts, stores, evictions, and walkers that trap with a DRAM
// fill still outstanding and drain in the trapped state.
func TestBookkeepingAuditHolds(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		r := newRig(t, Config{NumActive: 70, NumExe: 4}, storeSpec(),
			metatag.Config{Sets: 16, Ways: 4, KeyWords: 1}, dataram.Config{Sectors: 96, WordsPerSector: 4})
		r.fillArray(200)
		auditRun(t, r, 3000, func(i int) (MetaOp, uint64) {
			key := uint64(i*37) % 230 // keys >= 200 are not found
			switch {
			case i%7 == 0:
				return MetaStore, key
			case i%3 == 0:
				return MetaLoad, uint64(i-1) * 37 % 230 // merges behind the previous walk
			}
			return MetaLoad, key
		})
		st := r.c.Stats()
		if st.MergedWaiters == 0 || st.NotFound == 0 || st.Hits == 0 || r.c.Tags.Stats().Evictions == 0 {
			t.Fatalf("stream missed a path: %+v", st)
		}
	})
	t.Run("trapped-drain", func(t *testing.T) {
		spec := program.Spec{
			Name:   "twofill",
			States: []string{"W"},
			Transitions: []program.Transition{
				{State: "Default", Event: "MetaLoad", Asm: `
					allocm
					lde r4, e0
					enqfilli r4, 1
					enqfilli r4, 1
					state W`},
				// The first fill's wake overruns the 1-word message and traps
				// while the second fill is still outstanding.
				{State: "W", Event: "Fill", Asm: "peek r5, 3\nenqresp r5, OK\nabort"},
			},
		}
		r := newRig(t, Config{NumActive: 70}, spec, defaultTagCfg(), defaultDataCfg())
		r.fillArray(8)
		if !auditRun(t, r, 200, func(i int) (MetaOp, uint64) { return MetaLoad, uint64(i % 100) }) {
			t.Fatalf("no walker drained in the trapped state (%d traps)", r.c.Stats().Traps)
		}
	})
}

// TestBookkeepingAuditCatchesSkew pins that the audit is not vacuous:
// each bookkeeping structure knocked out of step with the walker structs
// is reported.
func TestBookkeepingAuditCatchesSkew(t *testing.T) {
	cases := []struct {
		name, want string
		skew       func(c *Controller, w int32)
	}{
		{"liveRegs", "liveRegs", func(c *Controller, w int32) { c.liveRegs++ }},
		{"camMask", "camMask", func(c *Controller, w int32) { clearBit(c.camMask, w) }},
		{"camKey", "camKey", func(c *Controller, w int32) { c.camKey[w][0]++ }},
		{"pendMask", "pendMask", func(c *Controller, w int32) { setBit(c.pendMask, w) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
			r.fillArray(32)
			r.issue(MetaLoad, 5, 0)
			r.k.Run(3) // the walker is spawned and waits for its fill
			w := int32(-1)
			for i := range r.c.walkers {
				if r.c.walkers[i].active && len(r.c.walkers[i].pending) == 0 {
					w = int32(i)
				}
			}
			if w < 0 {
				t.Fatal("no sleeping walker to skew")
			}
			if err := r.c.CheckInvariants(r.k.Cycle()); err != nil {
				t.Fatalf("audit failed before the skew: %v", err)
			}
			tc.skew(r.c, w)
			err := r.c.CheckInvariants(r.k.Cycle())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("skewed %s: audit reported %v", tc.name, err)
			}
		})
	}
}
