package vdom

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vdom/internal/bench"
	"vdom/internal/chaos"
	"vdom/internal/replay"
	"vdom/internal/workload"
)

// updateTraces re-records the golden corpus under testdata/traces/.
// Run `go test -run TestReplayGolden -update-traces .` after a change
// that intentionally shifts cycle costs or event streams.
var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/traces golden corpus")

const traceDir = "testdata/traces"

// goldenCorpus is the full golden-trace corpus: the paper workloads, the
// scenario subsystem's recorded cell and a short chaos soak.
func goldenCorpus() []workload.TraceSpec {
	return bench.TraceCorpus()
}

// TestReplayGolden is the golden-trace regression: every corpus workload
// is re-recorded and must match its checked-in trace and its JSONL view
// byte-for-byte, and
// replaying the checked-in trace must reproduce the recorded cycle
// clock, event stream, and end state with zero divergence.
func TestReplayGolden(t *testing.T) {
	for _, spec := range goldenCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			path := filepath.Join(traceDir, spec.Name+".trace")
			jsonlPath := filepath.Join(traceDir, spec.Name+".jsonl")
			fresh := spec.Record()
			enc := replay.Encode(fresh)
			var jsonl bytes.Buffer
			if err := replay.WriteJSONL(&jsonl, fresh); err != nil {
				t.Fatal(err)
			}

			if *updateTraces {
				if err := os.MkdirAll(traceDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(jsonlPath, jsonl.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d events, %d bytes)", path, len(fresh.Events), len(enc))
				return
			}

			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update-traces): %v", err)
			}
			if !bytes.Equal(enc, golden) {
				t.Fatalf("re-recording %s no longer matches its golden trace (%d vs %d bytes); run with -update-traces if the change is intentional",
					spec.Name, len(enc), len(golden))
			}
			goldenJSONL, err := os.ReadFile(jsonlPath)
			if err != nil {
				t.Fatalf("missing golden JSONL (run with -update-traces): %v", err)
			}
			if !bytes.Equal(jsonl.Bytes(), goldenJSONL) {
				t.Fatalf("the JSONL view of %s no longer matches %s; run with -update-traces if the change is intentional",
					spec.Name, jsonlPath)
			}

			tr, err := replay.Decode(golden)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			res, err := chaos.ReplayTrace(tr, replay.Options{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Divergence != nil {
				t.Fatalf("replay diverged: %s", res.Divergence)
			}
			if res.Events != len(tr.Events) {
				t.Fatalf("replayed %d of %d events", res.Events, len(tr.Events))
			}
			if res.Cycles != tr.End["clock"] {
				t.Fatalf("replayed clock %d != recorded clock %d", res.Cycles, tr.End["clock"])
			}
		})
	}
}

// TestReplayRoundTrip checks the record→replay property independently of
// the checked-in corpus: a fresh recording of each workload replays with
// zero divergence and round-trips through the binary codec.
func TestReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus re-record is not short")
	}
	for _, spec := range goldenCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Record()
			if len(tr.Events) == 0 {
				t.Fatal("recording captured no events")
			}

			dec, err := replay.Decode(replay.Encode(tr))
			if err != nil {
				t.Fatalf("binary round-trip: %v", err)
			}
			assertTraceEqual(t, "binary", tr, dec)

			res, err := chaos.ReplayTrace(dec, replay.Options{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Divergence != nil {
				t.Fatalf("replay diverged: %s", res.Divergence)
			}
			if res.Cycles != tr.End["clock"] {
				t.Fatalf("replayed clock %d != recorded clock %d", res.Cycles, tr.End["clock"])
			}
		})
	}
}

func assertTraceEqual(t *testing.T, codec string, want, got *replay.Trace) {
	t.Helper()
	if fmt.Sprintf("%+v", want.Header) != fmt.Sprintf("%+v", got.Header) {
		t.Fatalf("%s: header mismatch:\n want %+v\n  got %+v", codec, want.Header, got.Header)
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("%s: %d events decoded, want %d", codec, len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if want.Events[i] != got.Events[i] {
			t.Fatalf("%s: event %d mismatch:\n want %+v\n  got %+v", codec, i, want.Events[i], got.Events[i])
		}
	}
	if len(want.End) != len(got.End) {
		t.Fatalf("%s: end-state size %d, want %d", codec, len(got.End), len(want.End))
	}
	for k, v := range want.End {
		if got.End[k] != v {
			t.Fatalf("%s: end[%q] = %d, want %d", codec, k, got.End[k], v)
		}
	}
}
