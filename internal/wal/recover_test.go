package wal

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/topology"
	"repro/internal/yield"
)

// TestRecoverRecordSequences drives Recover over hand-built logs — the
// shapes a crash can leave and the two malformed shapes replay refuses —
// and pins the Report and where the log ends afterwards. The last case is
// the one place the deleted batch copy of the hold-back rule disagreed
// with the replayer: it accepted an advance between a step's prefix and
// its round; a tailing standby never did, and now nothing does.
func TestRecoverRecordSequences(t *testing.T) {
	const a, b = admission.DefaultDomain, "b"
	round := func(d string, seq int) Record {
		r := *testRecord(seq)
		r.Domain = d
		return r
	}
	advance := func(d string) Record { return Record{Kind: KindAdvance, Domain: d} }
	settle := func(d string) Record {
		return Record{Kind: KindSettle, Domain: d, Entries: []yield.Entry{{Slice: "ghost", Realized: 1}}}
	}
	observe := func(d string, epoch int) Record { return Record{Kind: KindObserve, Domain: d, Epoch: epoch} }
	forecasts := func(d string) Record {
		return Record{Kind: KindForecasts, Domain: d, Forecasts: []admission.ForecastUpdate{{Name: "ghost", LambdaHat: 1, Sigma: 1}}}
	}

	cases := []struct {
		name    string
		log     []Record
		want    Report
		wantLSN uint64
		wantErr string
	}{
		{
			name:    "prefix without its round at the tail",
			log:     []Record{round(a, 0), advance(a), settle(a), observe(a, 1), forecasts(a)},
			want:    Report{Applied: 2, Rounds: 1, HeldBack: 3},
			wantLSN: 2, // the three uncommitted records are physically gone
		},
		{
			name:    "trailing round without its advance",
			log:     []Record{round(a, 0), advance(a), settle(a), observe(a, 1), round(a, 1)},
			want:    Report{Applied: 5, Rounds: 2, CompletedAdvance: []string{a}},
			wantLSN: 6, // the completed advance is re-logged
		},
		{
			name:    "committed record after another domain's uncommitted prefix",
			log:     []Record{forecasts(a), round(b, 0)},
			wantErr: "cannot truncate",
		},
		{
			name:    "advance between a step's prefix and its round",
			log:     []Record{round(a, 0), advance(a), observe(a, 1), advance(a), round(a, 1)},
			wantErr: "advance at LSN 3 over a pending step prefix",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := mustOpen(t, Options{Dir: dir})
			for i := range tc.log {
				if err := w.append(&tc.log[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			s, rec := mustOpen(t, Options{Dir: dir})
			defer s.Close()
			if len(rec.Records) != len(tc.log) {
				t.Fatalf("reopen found %d records, wrote %d", len(rec.Records), len(tc.log))
			}
			eng := admission.New(admission.Config{Log: s})
			for _, d := range []string{a, b} {
				if err := eng.AddDomain(d, admission.DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := Recover(s, rec, Target{Engine: eng, Ledger: yield.NewLedger()})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Recover = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*rep, tc.want) {
				t.Fatalf("report %+v, want %+v", *rep, tc.want)
			}
			if got := s.next; got != tc.wantLSN {
				t.Fatalf("log ends at LSN %d after recovery, want %d", got, tc.wantLSN)
			}
		})
	}
}
