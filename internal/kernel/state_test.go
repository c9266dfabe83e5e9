package kernel

import (
	"errors"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// TestSnapReservedWordsMustBeZero checks the two reserved words each
// task carries in the kernel section: the encoder writes zeros, and the
// reader rejects an image with either one set.
func TestSnapReservedWordsMustBeZero(t *testing.T) {
	k := boot(t, cycles.X86, 2, true)
	p := k.NewProcess()
	p.NewTask(0)
	p.NewTask(1)
	tableID := func(*pagetable.Table) int { return 0 }
	b := k.Snap(p, tableID).Append(nil)
	// The last task's reserved words are the image's final two bytes.
	if n := len(b); b[n-2] != 0 || b[n-1] != 0 {
		t.Fatalf("reserved words encode as %#x %#x, want 0 0", b[n-2], b[n-1])
	}
	read := func(img []byte) error {
		var s Snap
		r := wire.NewReader(img)
		s.Read(r, k, 1)
		return r.Done()
	}
	if err := read(b); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	for i := 1; i <= 2; i++ {
		bad := append([]byte(nil), b...)
		bad[len(bad)-i] = 7
		if err := read(bad); !errors.Is(err, wire.ErrBadRecord) {
			t.Errorf("reserved word %d set to 7: err = %v, want wire.ErrBadRecord", 3-i, err)
		}
	}
}
