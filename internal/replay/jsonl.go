package replay

import (
	"bufio"
	"encoding/json"
	"io"

	"vdom/internal/tap"
)

// jsonHeader is the first JSONL line: the format tag plus the header.
type jsonHeader struct {
	Format         string            `json:"format"`
	Kernel         string            `json:"kernel"`
	Arch           string            `json:"arch"`
	Cores          int               `json:"cores,omitempty"`
	TLBCap         int               `json:"tlb_cap,omitempty"`
	Seed           uint64            `json:"seed"`
	Workload       string            `json:"workload"`
	ConfigDigest   uint64            `json:"config_digest"`
	Flags          uint32            `json:"flags,omitempty"`
	FlushThreshold uint64            `json:"flush_threshold,omitempty"`
	Nas            int               `json:"nas,omitempty"`
	Domains        int               `json:"domains,omitempty"`
	Extra          map[string]uint64 `json:"extra,omitempty"`
}

// jsonEvent is one JSONL event line. Fields are omitted when zero so a
// line diff highlights only the fields an op actually uses.
type jsonEvent struct {
	Time  uint64 `json:"t"`
	TID   uint64 `json:"tid,omitempty"`
	Op    string `json:"op"`
	Addr  uint64 `json:"addr,omitempty"`
	Len   uint64 `json:"len,omitempty"`
	Dom   uint64 `json:"dom,omitempty"`
	Perm  uint8  `json:"perm,omitempty"`
	Flags uint8  `json:"flags,omitempty"`
	Cost  uint64 `json:"cost,omitempty"`
	Err   string `json:"err,omitempty"`
}

// jsonEnd is the final JSONL line carrying the end-state map.
type jsonEnd struct {
	End map[string]uint64 `json:"end"`
}

// WriteJSONL writes the trace in the line-oriented JSON form: one header
// line, one line per event, and (when present) one end-state line. The
// output diffs cleanly line-by-line between two recordings.
func WriteJSONL(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := t.Header
	if err := enc.Encode(jsonHeader{
		Format:         FormatName,
		Kernel:         h.Kernel,
		Arch:           h.Arch,
		Cores:          h.Cores,
		TLBCap:         h.TLBCap,
		Seed:           h.Seed,
		Workload:       h.Workload,
		ConfigDigest:   h.ConfigDigest,
		Flags:          h.Flags,
		FlushThreshold: h.FlushThreshold,
		Nas:            h.Nas,
		Domains:        h.Domains,
		Extra:          h.Extra,
	}); err != nil {
		return err
	}
	for _, e := range t.Events {
		je := jsonEvent{
			Time: e.Time, TID: e.TID, Op: e.Op.String(),
			Addr: e.Addr, Len: e.Len, Dom: e.Dom,
			Perm: e.Perm, Flags: e.Flags, Cost: e.Cost,
		}
		if e.Err != tap.CodeOK {
			je.Err = e.Err.String()
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	if t.End != nil {
		if err := enc.Encode(jsonEnd{End: t.End}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
