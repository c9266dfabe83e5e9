package bench

import (
	"bytes"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true} }

func TestTable3Output(t *testing.T) {
	var buf bytes.Buffer
	Table3(&buf, Options{})
	out := buf.String()
	for _, want := range []string{
		"Table 3", "empty syscall return", "secure wrvdr with VDS switch", "undefined",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 11 {
		t.Errorf("Table3 printed only %d lines", lines)
	}
}

func TestTable4Output(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf, quick())
	out := buf.String()
	for _, want := range []string{"VDom X86f seq", "VDom X86e seq", "libmpk seq", "EPK trig", "VDom ARMe seq"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing row %q", want)
		}
	}
}

func TestTable5Output(t *testing.T) {
	var buf bytes.Buffer
	Table5(&buf, Options{})
	out := buf.String()
	if !strings.Contains(out, "X86 overhead") || !strings.Contains(out, "undefined") {
		t.Errorf("Table5 output malformed:\n%s", out)
	}
}

func TestFig1Output(t *testing.T) {
	var buf bytes.Buffer
	Fig1(&buf, quick())
	out := buf.String()
	if !strings.Contains(out, "busy waiting") || !strings.Contains(out, "TLB shootdown") {
		t.Errorf("Fig1 output missing breakdown columns:\n%s", out)
	}
	if strings.Count(out, "\n") < 9 {
		t.Error("Fig1 missing client rows")
	}
}

func TestFig7Output(t *testing.T) {
	var buf bytes.Buffer
	Fig7(&buf, quick())
	out := buf.String()
	for _, want := range []string{"lowerbound", "VDS switch", "VDom eviction", "libmpk 4KB pages", "ARM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 missing %q", want)
		}
	}
}

func TestUnixBenchAndCtxSwitchOutput(t *testing.T) {
	var buf bytes.Buffer
	UnixBench(&buf, Options{})
	if !strings.Contains(buf.String(), "index") {
		t.Error("UnixBench output malformed")
	}
	buf.Reset()
	CtxSwitch(&buf, Options{})
	out := buf.String()
	if !strings.Contains(out, "switch_mm") || !strings.Contains(out, "X86") {
		t.Errorf("CtxSwitch output malformed:\n%s", out)
	}
}

func TestAblationsOutput(t *testing.T) {
	var buf bytes.Buffer
	Ablations(&buf, quick())
	out := buf.String()
	for _, want := range []string{"HLRU", "PMD-disable", "ASID tagging", "call gate", "range-flush"} {
		if !strings.Contains(out, want) {
			t.Errorf("Ablations missing %q", want)
		}
	}
}

func TestOptionsScale(t *testing.T) {
	q, f := Options{Quick: true}, Options{}
	if q.httpdRequests() >= f.httpdRequests() {
		t.Error("quick mode not smaller for httpd")
	}
	if q.pmoOps() >= f.pmoOps() {
		t.Error("quick mode not smaller for pmo")
	}
	if q.mysqlQueries() >= f.mysqlQueries() {
		t.Error("quick mode not smaller for mysql")
	}
	if q.patternRounds() >= f.patternRounds() {
		t.Error("quick mode not smaller for patterns")
	}
}

func TestFig5OutputQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	var buf bytes.Buffer
	Fig5(&buf, quick())
	out := buf.String()
	for _, want := range []string{"X86 1KB", "X86 128KB", "ARM 64KB", "original", "libmpk"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 missing %q", want)
		}
	}
}

func TestFig6OutputQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	var buf bytes.Buffer
	Fig6(&buf, quick())
	out := buf.String()
	if !strings.Contains(out, "DNF") {
		t.Error("Fig6 missing libmpk DNF marker beyond 14 clients")
	}
	if !strings.Contains(out, "X86") || !strings.Contains(out, "ARM") {
		t.Error("Fig6 missing architecture sections")
	}
}

func TestCSVRendering(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Quick: true, Format: CSV}
	Table3(&buf, o)
	out := buf.String()
	if !strings.HasPrefix(out, "# Table 3") {
		t.Errorf("CSV missing title comment:\n%s", out)
	}
	if !strings.Contains(out, "Operation,X86 Cycles,ARM Cycles") {
		t.Errorf("CSV missing header row:\n%s", out)
	}
	if !strings.Contains(out, "empty syscall return,173.0,268.0") {
		t.Errorf("CSV missing data row:\n%s", out)
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"": Text, "text": Text, "CSV": CSV, "csv": CSV} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = (%v, %v)", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
}

func TestTableWriters(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "b"}}
	tb.Row("1", "2")
	tb.Row("3", "4")
	var buf bytes.Buffer
	tb.WriteText(&buf)
	if !strings.Contains(buf.String(), "a") || !strings.Contains(buf.String(), "3") {
		t.Errorf("text output: %q", buf.String())
	}
	buf.Reset()
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# T\na,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Errorf("csv output %q, want %q", buf.String(), want)
	}
}

func TestTable1And2Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, quick())
	out := buf.String()
	for _, api := range []string{"vdom_init", "vdom_mprotect", "wrvdr", "vdr_alloc"} {
		if !strings.Contains(out, api) {
			t.Errorf("Table1 missing %q", api)
		}
	}
	buf.Reset()
	Table2(&buf, quick())
	out = buf.String()
	if !strings.Contains(out, "binary scan") || !strings.Contains(out, "syscall filter") {
		t.Errorf("Table2 missing defense types:\n%s", out)
	}
	if strings.Contains(out, "NOT BLOCKED") {
		t.Errorf("Table2 reports an unblocked defense:\n%s", out)
	}
}

func TestCompareOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison sweep")
	}
	var buf bytes.Buffer
	Compare(&buf, quick())
	out := buf.String()
	for _, want := range []string{
		"Compare: Table 3", "worst Table 3 deviation",
		"Compare: Table 4 headline cells", "Compare: application overheads",
		"Compare: context switch", "paper",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Compare output missing %q", want)
		}
	}
}

func TestPaperReferenceTables(t *testing.T) {
	if len(paperTable3) != 10 {
		t.Errorf("paperTable3 rows = %d, want 10", len(paperTable3))
	}
	if len(paperTable4) != 11 {
		t.Errorf("paperTable4 rows = %d, want 11", len(paperTable4))
	}
	if paperTable5["X86"][4] != 56.1 {
		t.Error("paperTable5 X86/32 wrong")
	}
	if len(paperHeadlines) < 15 {
		t.Errorf("paperHeadlines = %d entries", len(paperHeadlines))
	}
}
