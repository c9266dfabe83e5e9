package tap_test

import (
	"errors"
	"fmt"
	"testing"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/dpti"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/mm"
	"vdom/internal/tap"
)

// TestOutcomeTable pins the outcome taxonomy. Every domain sentinel maps
// to its frozen wire code, JSONL name and class, bare and wrapped; codes
// are unique and names distinct (the JSONL view is write-only, so a
// shared name would make two outcomes indistinguishable in a diff); and
// every multi-sentinel chain the program builds classifies by the
// precedence the recorded traces were written with.
func TestOutcomeTable(t *testing.T) {
	rows := []struct {
		err   error
		code  tap.Code
		name  string
		class tap.Class
	}{
		{nil, tap.CodeOK, "ok", tap.ClassNone},
		{kernel.ErrSigsegv, tap.CodeSigsegv, "sigsegv", tap.ClassDenied},
		{kernel.ErrBlocked, tap.CodeBlocked, "blocked", tap.ClassDenied},
		{core.ErrNoVDR, tap.CodeNoVDR, "no-vdr", tap.ClassDenied},
		{core.ErrDenied, tap.CodeDenied, "denied", tap.ClassDenied},
		{core.ErrReassign, tap.CodeReassign, "reassign", tap.ClassMisuse},
		{core.ErrFreedVdom, tap.CodeFreedVdom, "freed-vdom", tap.ClassDenied},
		{core.ErrNoResources, tap.CodeNoResources, "no-resources", tap.ClassPushback},
		{core.ErrExhausted, tap.CodeExhausted, "exhausted", tap.ClassPushback},
		{core.ErrDegraded, tap.CodeDegraded, "degraded", tap.ClassPushback},
		{libmpk.ErrNoFreeKey, tap.CodeNoFreeKey, "no-free-key", tap.ClassPushback},
		{libmpk.ErrUnknownKey, tap.CodeUnknownKey, "unknown-vkey", tap.ClassMisuse},
		{mm.ErrBadRange, tap.CodeBadRange, "bad-range", tap.ClassMisuse},
		{mm.ErrNoMapping, tap.CodeNoMapping, "no-mapping", tap.ClassMisuse},
		{dpti.ErrUnknownDomain, tap.CodeUnknownDomain, "unknown-domain", tap.ClassMisuse},
		{dpti.ErrNoASID, tap.CodeNoASID, "no-asid", tap.ClassPushback},
		{backend.ErrDomainCapacity, tap.CodeDomainCapacity, "domain-capacity", tap.ClassPushback},
		{mm.ErrSegfault, tap.CodeOther, "other", tap.ClassNone},
	}
	codes := map[tap.Code]bool{}
	names := map[string]tap.Code{}
	for _, r := range rows {
		errs := []error{r.err}
		if r.err != nil {
			errs = append(errs, fmt.Errorf("ctx: %w", r.err), fmt.Errorf("%w: %w", errors.New("ctx"), r.err))
		}
		for _, err := range errs {
			if got := tap.CodeOf(err); got != r.code {
				t.Errorf("CodeOf(%v) = %d, want %d", err, got, r.code)
			}
			if got := tap.ClassOf(err); got != r.class {
				t.Errorf("ClassOf(%v) = %d, want %d", err, got, r.class)
			}
		}
		if got := r.code.String(); got != r.name {
			t.Errorf("code %d named %q, want %q", r.code, got, r.name)
		}
		if !r.code.Valid() {
			t.Errorf("code %d (%s) not valid", r.code, r.name)
		}
		if codes[r.code] {
			t.Errorf("code %d appears twice", r.code)
		}
		if prev, dup := names[r.name]; dup {
			t.Errorf("codes %d and %d share the name %q", prev, r.code, r.name)
		}
		codes[r.code], names[r.name] = true, r.code
	}
	for c := tap.CodeOK; c < tap.CodeOther; c++ {
		if c.Valid() != codes[c] {
			t.Errorf("code %d: Valid = %v, but the table has it: %v", c, c.Valid(), codes[c])
		}
		if !c.Valid() && c.String() != "" {
			t.Errorf("undefined code %d named %q", c, c.String())
		}
	}

	filterErr := errors.New("filter policy")
	chains := []struct {
		name string
		err  error
		want tap.Code
	}{
		{"sigsegv over denied", fmt.Errorf("%w: %w at %#x", kernel.ErrSigsegv, core.ErrDenied, 0x1000), tap.CodeDenied},
		{"sigsegv over no-mapping", fmt.Errorf("%w: %w", kernel.ErrSigsegv, fmt.Errorf("fault: %w", mm.ErrNoMapping)), tap.CodeNoMapping},
		{"sigsegv over freed-vdom", fmt.Errorf("%w: %w at %#x", kernel.ErrSigsegv, core.ErrFreedVdom, 0x1000), tap.CodeFreedVdom},
		{"blocked over a filter error", fmt.Errorf("%w: %s: %w", kernel.ErrBlocked, kernel.SysMmap, filterErr), tap.CodeBlocked},
		{"degraded over no-resources", fmt.Errorf("retry: %w: %w", core.ErrDegraded, fmt.Errorf("vds: %w", core.ErrNoResources)), tap.CodeDegraded},
		{"degraded over exhausted", fmt.Errorf("retry: %w: %w", core.ErrDegraded, fmt.Errorf("vds: %w", core.ErrExhausted)), tap.CodeDegraded},
	}
	for _, c := range chains {
		if got := tap.CodeOf(c.err); got != c.want {
			t.Errorf("%s: CodeOf(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}
