package controller

import (
	"testing"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
)

// megaIncastPlan is the megaincast figure's fabric: 17 leaves of 64 hosts
// (16 sender racks and the reducer rack) under 2 spines, with a
// Dynamic-Threshold pool on every switch, twice as large on the spines.
func megaIncastPlan() *topology.Plan {
	const leaves, spines = 17, 2
	plan := topology.LeafSpine(leaves, spines, 64, netsim.LinkConfig{QueueBytes: 64 << 20})
	ports := map[netsim.NodeID]int{}
	for _, l := range plan.Links {
		ports[l.A]++
		ports[l.B]++
	}
	for i, sw := range plan.Switches {
		total := 512 << 10
		if i >= leaves {
			total *= 2
		}
		reserve := 2 << 10
		if limit := total / (4 * ports[sw]); reserve > limit {
			reserve = limit
		}
		plan.SetPool(sw, netsim.PoolConfig{TotalBytes: total, ReserveBytes: reserve, Alpha: 2})
	}
	return plan
}

// realizeMegaIncast builds the megaincast fabric with a DAIET program on
// every switch and a transport host on every host.
func realizeMegaIncast(b *testing.B, plan *topology.Plan) (*netsim.Network, *topology.Fabric, map[netsim.NodeID]*core.Program) {
	nw := netsim.New(1)
	programs := make(map[netsim.NodeID]*core.Program, len(plan.Switches))
	fab := plan.Realize(nw,
		func(id netsim.NodeID) netsim.Node {
			p, err := core.NewProgram(core.ProgramConfig{})
			if err != nil {
				b.Fatal(err)
			}
			programs[id] = p
			return p.Switch()
		},
		func(netsim.NodeID) netsim.Node { return transport.NewHost() })
	return nw, fab, programs
}

// BenchmarkRealizeMegaIncast measures building the megaincast fabric:
// adding 1,107 nodes, connecting 1,122 links and installing the pools.
func BenchmarkRealizeMegaIncast(b *testing.B) {
	plan := megaIncastPlan()
	b.ReportAllocs()
	for b.Loop() {
		nw, _, _ := realizeMegaIncast(b, plan)
		nw.Close()
	}
}

// BenchmarkInstallRoutingMegaIncast measures installing forwarding
// entries for all 1,088 hosts on all 19 switches of a freshly realized
// megaincast fabric, routing tables included: each iteration gets a new
// fabric, whose realization is not timed.
func BenchmarkInstallRoutingMegaIncast(b *testing.B) {
	plan := megaIncastPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw, fab, programs := realizeMegaIncast(b, plan)
		b.StartTimer()
		if err := New(fab, programs).InstallRouting(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		nw.Close()
		b.StartTimer()
	}
}
