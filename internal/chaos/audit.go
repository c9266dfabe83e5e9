package chaos

import (
	"fmt"

	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// Violation is one detected incoherence between layers.
type Violation struct {
	// Core is the core whose TLB holds the offending state, or -1 for
	// manager-internal violations.
	Core int
	// Desc describes the violation.
	Desc string
}

// String renders the violation.
func (v Violation) String() string {
	if v.Core < 0 {
		return v.Desc
	}
	return fmt.Sprintf("core %d: %s", v.Core, v.Desc)
}

// Audit performs the full cross-layer consistency check over instances
// sharing one machine and kernel: every VDom manager's private metadata
// via core.Manager.AuditInvariants, then every core's TLB against the
// page table each cached ASID tags (task base ASIDs the shadow table,
// VDom VDSes and DPTI domains their own). A healthy system — even one
// under active fault injection, thanks to the degradation paths —
// reports no violations.
//
// TLB entries under a retired ASID ("zombies") are legal: the kernel
// defers ASID reuse until a generation rollover has flushed every TLB, so
// they can never be hit again. Entries under a live ASID must agree with
// that address space's page table: present translation, matching frame,
// matching domain tag, and no write permission beyond the PTE's. A cached
// read-only entry for a now-writable page is benign staleness (the next
// write faults and upgrades) and is not flagged.
func Audit(insts ...*replay.System) []Violation {
	if len(insts) == 0 {
		return nil
	}
	m, k := insts[0].Machine, insts[0].Kernel
	var out []Violation
	// Map every live ASID to the page table it tags translations of.
	byASID := make(map[tlb.ASID]*pagetable.Table)
	for _, sys := range insts {
		shadow := sys.Proc.AS().Shadow()
		for _, t := range sys.Proc.Tasks() {
			byASID[t.BaseASID()] = shadow
		}
		if mgr := sys.Manager; mgr != nil {
			for _, desc := range mgr.AuditInvariants() {
				out = append(out, Violation{Core: -1, Desc: desc})
			}
			for _, vds := range mgr.VDSes() {
				byASID[vds.ASID()] = vds.Table()
			}
		}
		if d := sys.DPTI; d != nil {
			d.OwnedASIDs(func(a tlb.ASID, tb *pagetable.Table) { byASID[a] = tb })
		}
	}

	for id := 0; id < m.NumCores(); id++ {
		coreID := id
		m.Core(id).TLB().Each(func(e tlb.Entry) {
			table, known := byASID[e.ASID]
			if !known {
				if k.ASIDLive(e.ASID) {
					out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
						"entry (asid %d, vpn %#x) under a live ASID no address space owns",
						e.ASID, e.VPN)})
				}
				return // zombie ASID: unreachable until a rollover flush
			}
			addr := pagetable.VAddr(e.VPN * pagetable.PageSize)
			wr := table.Walk(addr)
			switch {
			case wr.PMDDisabled:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) survives under a PMD-disabled region", e.ASID, e.VPN)})
			case !wr.Present:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"stale entry (asid %d, vpn %#x): translation no longer present", e.ASID, e.VPN)})
			case wr.PTE.Frame != e.Frame:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) maps frame %d, PTE says %d",
					e.ASID, e.VPN, e.Frame, wr.PTE.Frame)})
			case wr.PTE.Pdom != e.Pdom:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) tagged pdom %d, PTE says %d — domain revocation leak",
					e.ASID, e.VPN, e.Pdom, wr.PTE.Pdom)})
			case e.Writable && !wr.PTE.Writable:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) writable, PTE is read-only — write-protect leak",
					e.ASID, e.VPN)})
			}
		})
	}
	return out
}
