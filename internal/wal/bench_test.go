package wal

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/slice"
	"repro/internal/topology"
)

// BenchmarkWALRoundCommit measures the durability tax in isolation: one
// admission round's log-before-ack sequence — append the batch record,
// fsync — per iteration. This is the floor the group commit amortizes:
// every record a step produces (settle, observe, forecasts, round,
// advance) rides this one fsync. Read it at -benchtime 1000x or more: the
// first iteration also pays encoding/json's once-per-process encoder cache
// for Record (≈ 520 allocs) and a fresh segment's first fsync, ≈ 1 ms
// against 0.2 ms in steady state (EXPERIMENTS.md).
func BenchmarkWALRoundCommit(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := []admission.Request{
		{Name: "a", SLA: slice.SLA{Template: slice.Table1(slice.EMBB), Duration: 4}.WithPenaltyFactor(1)},
		{Name: "b", SLA: slice.SLA{Template: slice.Table1(slice.URLLC), Duration: 4}.WithPenaltyFactor(1)},
		{Name: "c", SLA: slice.SLA{Template: slice.Table1(slice.MMTC), Duration: 4}.WithPenaltyFactor(1)},
	}
	for i := 0; b.Loop(); i++ {
		if err := s.AppendRound(admission.DefaultDomain, uint64(i), batch); err != nil {
			b.Fatal(err)
		}
		if err := s.SyncRound(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkAdmissionThroughputWAL is the durable counterpart of
// admission's BenchmarkAdmissionThroughput/shards=1: the same submit,
// batch, solve, commit loop on one domain with every round logged and
// fsynced before its acks. The gap between the two numbers is the
// end-to-end cost of crash durability.
func BenchmarkAdmissionThroughputWAL(b *testing.B) {
	const (
		epochs    = 4
		perEpoch  = 3
		totalReqs = epochs * perEpoch
	)
	types := []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}
	for b.Loop() {
		s, _, err := Open(Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		e := admission.New(admission.Config{QueueDepth: 4 * totalReqs, Log: s})
		if err := e.AddDomain("", admission.DomainConfig{Net: topology.Testbed(), Algorithm: "benders"}); err != nil {
			b.Fatal(err)
		}
		if err := e.Start(); err != nil {
			b.Fatal(err)
		}
		for ep := 0; ep < epochs; ep++ {
			for k := 0; k < perEpoch; k++ {
				_, err := e.Submit(admission.Request{
					Name: fmt.Sprintf("e%d-k%d", ep, k),
					SLA:  slice.SLA{Template: slice.Table1(types[(ep+k)%len(types)]), Duration: 2}.WithPenaltyFactor(1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if _, err := e.DecideRound(""); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Advance(""); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		e.Stop()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(totalReqs*b.N)/b.Elapsed().Seconds(), "req/s")
}
