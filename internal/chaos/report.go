package chaos

import (
	"encoding/json"
	"fmt"
	"io"
)

// ShardReport is one soak shard's outcome in the machine-readable soak
// report CI archives alongside any trace dumps.
type ShardReport struct {
	Shard int    `json:"shard"`
	Seed  uint64 `json:"seed"`
	Ops   int    `json:"ops"`
	// Cycles is the shard's total simulated cycle cost.
	Cycles uint64 `json:"cycles"`
	// Injected and Recovered are the injector's per-kind counters.
	Injected  map[string]uint64 `json:"injected,omitempty"`
	Recovered map[string]uint64 `json:"recovered,omitempty"`
	// Violations and Unrecovered list the shard's failures verbatim; a
	// healthy shard has neither.
	Violations  []string `json:"violations,omitempty"`
	Unrecovered []string `json:"unrecovered,omitempty"`
	// TraceEvents is the length of the shard's recording (0 when
	// recording was off).
	TraceEvents int `json:"trace_events,omitempty"`
	// TracePath is where the shard's replayable (fail) trace was dumped,
	// when it was.
	TracePath string `json:"trace_path,omitempty"`
	// Crash describes the shard's crash-fault injection and recovery
	// (crash-soak runs only).
	Crash *CrashShard `json:"crash,omitempty"`
}

// CrashShard is the crash-and-recovery slice of a shard report.
type CrashShard struct {
	// Kind names the crash fault (CrashKind.String).
	Kind string `json:"kind"`
	// CheckpointOp and CrashOp locate the recovery checkpoint and the
	// crash on the op stream.
	CheckpointOp int `json:"checkpoint_op"`
	CrashOp      int `json:"crash_op"`
	// DetectedBy is "watchdog" or "audit".
	DetectedBy string `json:"detected_by"`
	// TailEvents is the number of trace events replayed during recovery.
	TailEvents int `json:"tail_events"`
	// Identical reports the recovered run's trace being byte-identical
	// to the uninterrupted reference run.
	Identical bool `json:"identical"`
	// SnapshotPath is where the reproducer checkpoint was dumped, when
	// it was.
	SnapshotPath string `json:"snapshot_path,omitempty"`
}

// NewShardReport summarizes one shard's SoakResult.
func NewShardReport(shard int, seed uint64, res *SoakResult) ShardReport {
	r := ShardReport{
		Shard:     shard,
		Seed:      seed,
		Ops:       res.Ops,
		Cycles:    uint64(res.Cycles),
		Injected:  res.Injected,
		Recovered: res.Recovered,
	}
	if res.Trace != nil {
		r.TraceEvents = len(res.Trace.Events)
	}
	for _, v := range res.Violations {
		r.Violations = append(r.Violations, fmt.Sprint(v))
	}
	r.Unrecovered = append(r.Unrecovered, res.Unrecovered...)
	return r
}

// Report is the soak run's machine-readable summary: one entry per
// shard plus the aggregate verdict.
type Report struct {
	// Seed is the run's base seed; shard i soaks under Seed+i.
	Seed   uint64        `json:"seed"`
	Shards []ShardReport `json:"shards"`
	// Healthy is true when no shard had violations or unrecovered ops.
	Healthy bool `json:"healthy"`
	// TotalOps and TotalCycles aggregate across shards.
	TotalOps    int    `json:"total_ops"`
	TotalCycles uint64 `json:"total_cycles"`
}

// NewReport assembles the run report and computes the verdict.
func NewReport(seed uint64, shards []ShardReport) *Report {
	rep := &Report{Seed: seed, Shards: shards, Healthy: true}
	for _, s := range shards {
		rep.TotalOps += s.Ops
		rep.TotalCycles += s.Cycles
		if len(s.Violations) > 0 || len(s.Unrecovered) > 0 {
			rep.Healthy = false
		}
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
