package experiments

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/telemetry"
	"github.com/daiet/daiet/internal/topology"
)

// Tenants is the multi-tenant slicing experiment behind the hard-carve
// reserve model: two jobs share one shared-memory switch, each under its
// own pool traffic class (netsim.PoolConfig.Classes, threaded through
// controller.TreeOptions.DataClass/AckClass). Tenant 0, the victim, is a
// latency-sensitive streaming job: a few senders pacing small chunks into
// their aggregation tree, sized to stay inside the class-0 carved floor at
// all times. Tenant 1, the aggressor, is a synchronized incast: many
// senders blasting at t=0 under a high Dynamic-Threshold alpha.
//
// The sweep crosses the victim's carve size with the aggressor's alpha.
// Under the old threshold-exemption model the reserve was advisory — the
// aggressor's borrowed bytes physically consumed the victim's floor, and
// the victim was pool-rejected inside its own reserve (the c0 point
// reproduces that regime: no floor, pure DT). With hard carving, any
// nonzero floor covering the victim's working set drives its drop rate to
// zero regardless of aggressor alpha, which is the property the figure
// demonstrates.
//
// Everything is deterministic in (Seed, config): completions are virtual
// time, per-tenant drop attribution comes from the pool's per-class
// counters, and the registry-wide determinism suites hold the results
// byte-identical at any -sim-workers value and under re-cut schedules.

// TenantsConfig sizes one two-tenant trial.
type TenantsConfig struct {
	Seed uint64

	// Victim tenant: paced streaming fan-in (defaults: 4 senders, 240
	// pairs each, chunks of 20 pairs every 100 µs).
	VictimSenders int
	VictimPairs   int
	// VictimReserve is the swept per-port class-0 carve; -1 means an
	// explicit zero floor (0 picks the 2 KiB default).
	VictimReserve int

	// Aggressor tenant: synchronized incast (defaults: 16 senders, 600
	// pairs each). Class 1 carries no floor; AggAlpha is swept (default 8).
	AggSenders int
	AggPairs   int
	AggAlpha   float64

	SimWorkers int
	Recut      topology.RecutConfig

	// VictimOnly drops the aggressor's traffic and tree: the uncontended
	// reference the completion-inflation metric divides by.
	VictimOnly bool

	// Telemetry, when non-nil, records the shared switch's occupancy
	// timeline during the run — per-class pool gauges are the figure's
	// victim-vs-aggressor money shot. Nil leaves the hot path untouched.
	Telemetry *telemetry.Config
}

// Fixed parameters of the tenants fabric. The aggressor's key space is
// deliberately wider than the 4096-cell aggregation table, so its stream
// compresses poorly: the switch spills continuously toward the aggressor's
// reducer, whose deliberately slow downlink turns the fan-in into standing
// pressure on the shared memory — the classic incast regime, inside the
// pool.
const (
	tenantsVictimAlpha = 1
	tenantsVictimVocab = 512
	tenantsAggVocab    = 8192
	tenantsPoolBytes   = 64 << 10 // the switch's shared memory
	tenantsQueueBytes  = 64 << 20 // the poolless host uplinks
	tenantsTableSize   = 4096
)

func (c TenantsConfig) withDefaults() TenantsConfig {
	if c.VictimSenders == 0 {
		c.VictimSenders = 4
	}
	if c.VictimPairs == 0 {
		c.VictimPairs = 240
	}
	switch {
	case c.VictimReserve == 0:
		c.VictimReserve = 2 << 10
	case c.VictimReserve < 0:
		c.VictimReserve = 0
	}
	if c.AggSenders == 0 {
		c.AggSenders = 16
	}
	if c.AggPairs == 0 {
		c.AggPairs = 600
	}
	if c.AggAlpha == 0 {
		c.AggAlpha = 8
	}
	return c
}

// TenantsResult is one trial's outcome.
type TenantsResult struct {
	Cfg TenantsConfig

	// Per-tenant admission accounting at the pooled switch egress. Each
	// tenant's hosts are disjoint, so its switch ports carry only its own
	// traffic and per-port counters attribute cleanly.
	VictimAttempted, VictimDropped uint64
	AggAttempted, AggDropped       uint64

	// Per-class pool drop attribution (PoolStats.Classes) — cross-checked
	// against the per-port counters above.
	VictimPoolDrops, AggPoolDrops uint64

	// Completions are per-tenant virtual times of the last END.
	VictimCompletion, AggCompletion netsim.Time

	// Timeline is the recorded switch timeline, non-nil only when
	// Cfg.Telemetry asked for one.
	Timeline *telemetry.Timeline
}

// Tenants runs one two-tenant round and verifies both tenants' aggregates
// are exact despite any loss (both trees run the reliable gate).
func Tenants(cfg TenantsConfig) (*TenantsResult, error) {
	cfg = cfg.withDefaults()

	// Hosts in order: victims, the victim's reducer, aggressors, the
	// aggressor's reducer. The aggressor reducer's downlink is the incast
	// bottleneck: 100 Mb/s against 10 Gb/s sender uplinks, so the
	// spill/flush stream backs up inside the switch's shared memory
	// instead of draining instantly.
	plan := topology.SingleSwitch(cfg.VictimSenders+cfg.AggSenders+2,
		netsim.LinkConfig{QueueBytes: tenantsQueueBytes})
	plan.Links[len(plan.Links)-1].Cfg.BandwidthBps = 100_000_000
	sw := plan.Switches[0]
	hosts := plan.Hosts
	victim := &faninTree{
		name:    "victim",
		workers: hosts[:cfg.VictimSenders], reducer: hosts[cfg.VictimSenders],
		pairs: cfg.VictimPairs, vocab: tenantsVictimVocab,
		opts:   tenantOptions(0, 8),
		window: 4,
		pace:   100 * time.Microsecond, chunk: 20,
	}
	// RootReplay 512 lets the aggressor keep ~68 KB of spill/flush traffic
	// in flight — more than the whole shared memory, so the only thing
	// bounding its occupancy is the pool's admission.
	aggressor := &faninTree{
		name:    "aggressor",
		workers: hosts[cfg.VictimSenders+1 : len(hosts)-1], reducer: hosts[len(hosts)-1],
		pairs: cfg.AggPairs, vocab: tenantsAggVocab,
		opts:   tenantOptions(1, 512),
		window: 32,
	}

	// Class 0: the victim's carved slice. Class 1: the aggressor's
	// floorless DT share. The carve is per (port, class), so every switch
	// port reserves VictimReserve bytes the aggressor physically cannot
	// borrow.
	plan.SetPool(sw, netsim.PoolConfig{
		TotalBytes: tenantsPoolBytes,
		Classes: []netsim.ClassConfig{
			{ReserveBytes: cfg.VictimReserve, Alpha: tenantsVictimAlpha},
			{ReserveBytes: 0, Alpha: cfg.AggAlpha},
		},
	})

	f, err := newFanIn("tenants", plan, cfg.Seed, cfg.SimWorkers, cfg.Recut, netsim.SyncEIT)
	if err != nil {
		return nil, err
	}
	if err := f.addTree(victim); err != nil {
		return nil, err
	}
	if !cfg.VictimOnly {
		if err := f.addTree(aggressor); err != nil {
			return nil, err
		}
	}
	tl, err := f.run(400_000_000, cfg.Telemetry)
	if err != nil {
		return nil, err
	}

	// Per-tenant admission accounting at the pooled switch egress: the
	// ACK streams back to the tenant's senders plus the flush stream to
	// its reducer.
	account := func(t *faninTree) (e egress) {
		for _, h := range append(t.workers[:len(t.workers):len(t.workers)], t.reducer) {
			e.add(f.nw, sw, f.fab.PortTo(sw, h))
		}
		return e
	}
	ve, ae := account(victim), account(aggressor)
	res := &TenantsResult{
		Cfg:              cfg,
		VictimAttempted:  ve.attempted,
		VictimDropped:    ve.dropped,
		AggAttempted:     ae.attempted,
		AggDropped:       ae.dropped,
		VictimCompletion: victim.completion,
		AggCompletion:    aggressor.completion,
		Timeline:         tl,
	}

	ps, ok := f.nw.PoolStats(sw)
	if !ok || len(ps.Classes) != 2 {
		return nil, fmt.Errorf("experiments: tenants: switch pool missing (%+v)", ps)
	}
	res.VictimPoolDrops = ps.Classes[0].Drops
	res.AggPoolDrops = ps.Classes[1].Drops
	// Attribution consistency: each tenant's hosts are disjoint, so the
	// per-class drop counters must equal the per-port sums.
	if ve.poolDrops != res.VictimPoolDrops {
		return nil, fmt.Errorf("experiments: tenants: victim drop attribution: class %d, ports %d",
			res.VictimPoolDrops, ve.poolDrops)
	}
	if ae.poolDrops != res.AggPoolDrops {
		return nil, fmt.Errorf("experiments: tenants: aggressor drop attribution: class %d, ports %d",
			res.AggPoolDrops, ae.poolDrops)
	}
	return res, nil
}

// tenantOptions places tenant idx's tree, data and ACKs in pool class idx.
func tenantOptions(idx, rootReplay int) controller.TreeOptions {
	return controller.TreeOptions{
		TableSize:  tenantsTableSize,
		RootReplay: rootReplay,
		DataClass:  idx,
		AckClass:   idx,
		Tenant:     idx,
	}
}

// tenantsRefs memoizes the uncontended victim-only reference runs, one per
// config — every sweep point of a trial divides by the same reference.
var tenantsRefs memo[TenantsConfig, *TenantsResult]

// tenantsReference is cfg's victim-only run. It is never recorded, so the
// key drops Telemetry too.
func tenantsReference(cfg TenantsConfig) (*TenantsResult, error) {
	cfg.VictimOnly = true
	cfg.Telemetry = nil
	return tenantsRefs.get(cfg, Tenants)
}

func init() {
	// Sweep: victim carve size × aggressor alpha. The c0 row reproduces
	// the pre-carve regime (reserve floors that do not hold); the a8 row
	// isolates how much of the protection the carve provides vs a gentler
	// aggressor threshold.
	// At alpha 1024 the aggressor's DT equilibrium leaves free ≈ q/alpha —
	// a few dozen bytes, less than one frame — so a floorless victim is
	// starved outright, the regime the old threshold-exemption model
	// produced at ANY high alpha once free hit zero.
	sweep := []struct {
		label string
		carve int // -1: explicit zero floor
		alpha float64
	}{
		{"c0/a1024", -1, 1024},
		{"c512/a1024", 512, 1024},
		{"c1K/a1024", 1024, 1024},
		{"c2K/a1024", 2048, 1024},
		{"c2K/a8", 2048, 8},
	}
	pts := make([]Point, len(sweep))
	for i, s := range sweep {
		carve := s.carve
		if carve < 0 {
			carve = 0
		}
		pts[i] = Point{Label: s.label, X: float64(carve)}
	}
	Register(&Spec{
		Name:   "tenants",
		Title:  "Extension: multi-tenant fabric slicing — hard-carved reserves isolate a streaming victim from an incast aggressor",
		XLabel: "victim carve",
		Points: pts,
		Metrics: []string{
			"victim_drop_rate_pct",
			"victim_completion_inflation_x",
			"victim_pool_drops",
			"aggressor_pool_drops",
			"jain_fairness",
		},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			s, err := pointOf("tenants", pts, sweep, pt.Label)
			if err != nil {
				return nil, err
			}
			base := TenantsConfig{
				Seed:          tr.Seed,
				VictimSenders: scaledInt(4, tr.Scale, 2),
				VictimPairs:   scaledInt(240, tr.Scale, 40),
				AggSenders:    scaledInt(16, tr.Scale, 4),
				AggPairs:      scaledInt(600, tr.Scale, 80),
				VictimReserve: s.carve,
				AggAlpha:      s.alpha,
				SimWorkers:    tr.SimWorkers,
				Recut:         tr.Recut,
			}
			res, err := Tenants(base)
			if err != nil {
				return nil, err
			}
			ref, err := tenantsReference(base)
			if err != nil {
				return nil, err
			}
			// Jain fairness over each tenant's delivered fraction at the
			// shared switch: 1.0 when the slice protects both equally.
			fair := jainIndex([]float64{
				stats.Ratio(float64(res.VictimAttempted-res.VictimDropped), float64(res.VictimAttempted)),
				stats.Ratio(float64(res.AggAttempted-res.AggDropped), float64(res.AggAttempted)),
			})
			return map[string]float64{
				"victim_drop_rate_pct":          100 * stats.Ratio(float64(res.VictimDropped), float64(res.VictimAttempted)),
				"victim_completion_inflation_x": stats.Ratio(float64(res.VictimCompletion), float64(ref.VictimCompletion)),
				"victim_pool_drops":             float64(res.VictimPoolDrops),
				"aggressor_pool_drops":          float64(res.AggPoolDrops),
				"jain_fairness":                 fair,
			}, nil
		},
	})
}
