// Package mm implements the simulated kernel's per-process memory
// management: the red-black tree of virtual memory areas (the mm_struct
// analog), demand paging, and the lazy/eager synchronization that keeps
// multiple per-VDS page tables consistent with one process-wide view of
// virtual memory (paper §6.2).
package mm

import (
	"fmt"

	"vdom/internal/pagetable"
)

// Tag is an opaque domain label attached to a VMA (the paper extends
// vm_flags with the vdom). Zero means untagged.
type Tag uint64

// VMA is one virtual memory area.
type VMA struct {
	Start    pagetable.VAddr
	Length   uint64
	Writable bool
	Tag      Tag
}

// End returns the exclusive end address.
func (v *VMA) End() pagetable.VAddr { return v.Start + pagetable.VAddr(v.Length) }

// Contains reports whether a falls inside the area.
func (v *VMA) Contains(a pagetable.VAddr) bool { return a >= v.Start && a < v.End() }

// Pages returns the number of pages the area covers.
func (v *VMA) Pages() int { return int(v.Length / pagetable.PageSize) }

// String formats the area for diagnostics.
func (v *VMA) String() string {
	w := "r-"
	if v.Writable {
		w = "rw"
	}
	return fmt.Sprintf("[%#x,%#x) %s tag=%d", uint64(v.Start), uint64(v.End()), w, v.Tag)
}

// Tree is a left-leaning red-black tree of VMAs keyed by start address,
// the moral equivalent of Linux's mm->mm_rb.
type Tree struct {
	root  *rbNode
	count int
}

type rbNode struct {
	vma         *VMA
	left, right *rbNode
	red         bool
}

func isRed(n *rbNode) bool { return n != nil && n.red }

func rotateLeft(h *rbNode) *rbNode {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight(h *rbNode) *rbNode {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors(h *rbNode) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp(h *rbNode) *rbNode {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Len returns the number of areas in the tree.
func (t *Tree) Len() int { return t.count }

// Insert adds a VMA. It panics on a duplicate start address; callers are
// expected to have checked for overlap already.
func (t *Tree) Insert(v *VMA) {
	t.root = t.insert(t.root, v)
	t.root.red = false
	t.count++
}

func (t *Tree) insert(h *rbNode, v *VMA) *rbNode {
	if h == nil {
		return &rbNode{vma: v, red: true}
	}
	switch {
	case v.Start < h.vma.Start:
		h.left = t.insert(h.left, v)
	case v.Start > h.vma.Start:
		h.right = t.insert(h.right, v)
	default:
		panic(fmt.Sprintf("mm: duplicate VMA start %#x", uint64(v.Start)))
	}
	return fixUp(h)
}

// Delete removes the VMA starting at start and reports whether it existed.
func (t *Tree) Delete(start pagetable.VAddr) bool {
	if t.lookupExact(start) == nil {
		return false
	}
	if !isRed(t.root.left) && !isRed(t.root.right) {
		t.root.red = true
	}
	t.root = t.delete(t.root, start)
	if t.root != nil {
		t.root.red = false
	}
	t.count--
	return true
}

func moveRedLeft(h *rbNode) *rbNode {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight(h *rbNode) *rbNode {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func minNode(h *rbNode) *rbNode {
	for h.left != nil {
		h = h.left
	}
	return h
}

func deleteMin(h *rbNode) *rbNode {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

func (t *Tree) delete(h *rbNode, start pagetable.VAddr) *rbNode {
	if start < h.vma.Start {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.delete(h.left, start)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if start == h.vma.Start && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if start == h.vma.Start {
			m := minNode(h.right)
			h.vma = m.vma
			h.right = deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, start)
		}
	}
	return fixUp(h)
}

func (t *Tree) lookupExact(start pagetable.VAddr) *VMA {
	n := t.root
	for n != nil {
		switch {
		case start < n.vma.Start:
			n = n.left
		case start > n.vma.Start:
			n = n.right
		default:
			return n.vma
		}
	}
	return nil
}

// Find returns the VMA containing a, or nil.
func (t *Tree) Find(a pagetable.VAddr) *VMA {
	n := t.root
	var cand *VMA
	for n != nil {
		if a < n.vma.Start {
			n = n.left
		} else {
			cand = n.vma
			n = n.right
		}
	}
	if cand != nil && cand.Contains(a) {
		return cand
	}
	return nil
}

// Range calls fn, in ascending order, for every VMA intersecting
// [start, end). Returning false from fn stops the walk. fn must not mutate
// the tree.
func (t *Tree) Range(start, end pagetable.VAddr, fn func(*VMA) bool) {
	if start >= end {
		return
	}
	// Areas are disjoint, so at most one intersecting area starts before
	// the window: the one containing start.
	if v := t.Find(start); v != nil && v.Start < start {
		if !fn(v) {
			return
		}
	}
	t.rangeFrom(t.root, start, end, fn)
}

// rangeFrom visits, in order, every node with Start in [start, end).
func (t *Tree) rangeFrom(n *rbNode, start, end pagetable.VAddr, fn func(*VMA) bool) bool {
	if n == nil {
		return true
	}
	if n.vma.Start >= start {
		if !t.rangeFrom(n.left, start, end, fn) {
			return false
		}
		if n.vma.Start < end && !fn(n.vma) {
			return false
		}
	}
	if n.vma.Start < end {
		if !t.rangeFrom(n.right, start, end, fn) {
			return false
		}
	}
	return true
}

// All calls fn for every VMA in ascending order. fn must not mutate the
// tree. It is O(n) in the number of areas, so it suits whole-space passes
// such as the snapshot codec, not per-operation paths; those use Range.
func (t *Tree) All(fn func(*VMA) bool) {
	t.allNode(t.root, fn)
}

func (t *Tree) allNode(n *rbNode, fn func(*VMA) bool) bool {
	if n == nil {
		return true
	}
	if !t.allNode(n.left, fn) {
		return false
	}
	if !fn(n.vma) {
		return false
	}
	return t.allNode(n.right, fn)
}
