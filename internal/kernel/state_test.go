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
	b := k.AppendState(nil, p, tableID)
	// The last task's reserved words are the image's final two bytes.
	if n := len(b); b[n-2] != 0 || b[n-1] != 0 {
		t.Fatalf("reserved words encode as %#x %#x, want 0 0", b[n-2], b[n-1])
	}
	read := func(img []byte) error {
		fresh := boot(t, cycles.X86, 2, true)
		r := wire.NewReader(img)
		fresh.ReadState(r, fresh.NewProcess(), func(int) *pagetable.Table { return nil }, 1)
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

// TestReadStateTaskNumbering checks that the reader accepts only tasks
// numbered 1..n in order, as NewTask numbers them: the encoder writes
// p.tasks in slice order, and a restored process must keep numbering new
// tasks after the last one.
func TestReadStateTaskNumbering(t *testing.T) {
	for _, tids := range [][]int{{2}, {1, 3}, {2, 5}, {0, 1}} {
		k := boot(t, cycles.X86, 2, true)
		p := k.NewProcess()
		for i, tid := range tids {
			p.NewTask(i % 2).tid = tid
		}
		b := k.AppendState(nil, p, func(*pagetable.Table) int { return 0 })
		fresh := boot(t, cycles.X86, 2, true)
		r := wire.NewReader(b)
		fresh.ReadState(r, fresh.NewProcess(), func(int) *pagetable.Table { return nil }, 1)
		if err := r.Done(); !errors.Is(err, wire.ErrBadRecord) {
			t.Errorf("tids %v: err = %v, want wire.ErrBadRecord", tids, err)
		}
	}
}
