package wal

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/reopt"
	"repro/internal/yield"
)

// Target is the freshly constructed live state Recover rebuilds into: an
// engine with its domains added but NOT started (replay rounds run
// synchronously on the recovery goroutine), an optional controller for the
// domain it drives, and the shared ledger.
type Target struct {
	Engine *admission.Engine
	// Controller receives controller state, settle/observe replay, and
	// post-round bookkeeping for the domain it drives. Optional
	// (engine-only deployments log no settle/observe records).
	Controller *reopt.Controller
	// Ledger is the shared yield account (also the controller's). Restored
	// from the snapshot; replayed rounds and settles then re-book on top.
	Ledger *yield.Ledger
}

// Report summarizes one recovery.
type Report struct {
	// SnapshotLSN is the restored snapshot's position (0 when recovery
	// started from an empty state).
	SnapshotLSN uint64
	// Applied counts replayed records; Rounds the rounds among them.
	Applied int
	Rounds  int
	// HeldBack counts trailing records whose step's round never became
	// durable; they were physically truncated and the step re-runs live.
	HeldBack int
	// CompletedAdvance lists domains whose final logged step had a durable
	// round but no advance; recovery completed (and re-logged) the tick.
	CompletedAdvance []string
}

// ctrlFor resolves the controller replaying domain's records, if any.
func (t Target) ctrlFor(domain string) *reopt.Controller {
	if t.Controller != nil && domain == t.Controller.Domain() {
		return t.Controller
	}
	return nil
}

// restoreSnapshot loads a durable image into the (virgin) target.
func restoreSnapshot(t Target, snap *Snapshot) error {
	if t.Ledger != nil {
		t.Ledger.RestoreState(snap.Ledger)
	}
	for _, ds := range snap.Domains {
		if err := t.Engine.RestoreDomain(ds); err != nil {
			return err
		}
	}
	if t.Controller != nil {
		for _, cs := range snap.Controllers {
			if cs.Domain == t.Controller.Domain() {
				if err := t.Controller.RestoreState(cs); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// replayOne applies one committed record through the same code paths a
// live step runs.
func replayOne(t Target, r Record) error {
	switch r.Kind {
	case KindSettle:
		if c := t.ctrlFor(r.Domain); c != nil {
			c.ReplaySettle(r.Entries)
		} else if t.Ledger != nil {
			for _, e := range r.Entries {
				t.Ledger.Book(e)
			}
		}
		return nil
	case KindObserve:
		if c := t.ctrlFor(r.Domain); c != nil {
			return c.ReplayObserve(r.Epoch, r.Alive, r.Peaks)
		}
		return nil
	case KindForecasts:
		return t.Engine.UpdateForecasts(r.Domain, r.Forecasts)
	case KindRound:
		// A returned round may carry a solver error; the original round
		// failed identically and decided nothing, so replay continues.
		if _, err := t.Engine.ReplayRound(r.Domain, r.Seq, r.Batch); err != nil {
			return err
		}
		if c := t.ctrlFor(r.Domain); c != nil {
			return c.ReplayRoundDone()
		}
		return nil
	case KindAdvance:
		if _, err := t.Engine.Advance(r.Domain); err != nil {
			return err
		}
		if c := t.ctrlFor(r.Domain); c != nil {
			c.ReplayAdvanced()
		}
		return nil
	case KindTopology:
		// Fsynced at append time and never held back: the capacity
		// trajectory re-applies through the live path (appends are
		// suppressed while recovering).
		return t.Engine.ApplyTopology(r.Domain, r.Events)
	case KindHandover:
		return t.Engine.Handover(r.Domain, r.To, r.Name)
	default:
		return fmt.Errorf("wal: unknown record kind %q", r.Kind)
	}
}

// Recover rebuilds live state from what Open found, by driving a Replayer
// over it in one go: restore the snapshot, replay the committed log suffix
// through the real engine/controller code paths, truncate the uncommitted
// tail, and deterministically complete a trailing half-finished step. After
// it returns, the target serves exactly as the crashed process would have.
func Recover(s *Store, rec *Recovered, t Target) (*Report, error) {
	r, err := NewReplayer(t)
	if err != nil {
		return nil, err
	}
	if err := r.Bootstrap(rec.Snapshot); err != nil {
		return nil, err
	}
	return r.Finalize(s, rec.Records)
}

// BuildSnapshot composes the durable image of the running control plane:
// every named engine domain, the given controller states, and the shared
// ledger. The caller must hold whatever serializes steps (the controller's
// Snapshot callback does, firing under the step lock at a step boundary).
func BuildSnapshot(eng *admission.Engine, domains []string, ctrls []reopt.ControllerState, led *yield.Ledger) (*Snapshot, error) {
	snap := &Snapshot{Controllers: ctrls}
	for _, d := range domains {
		ds, err := eng.ExportDomain(d)
		if err != nil {
			return nil, err
		}
		snap.Domains = append(snap.Domains, ds)
	}
	if led != nil {
		snap.Ledger = led.ExportState()
	}
	return snap, nil
}
