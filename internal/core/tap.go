package core

import "vdom/internal/tap"

// SetTap attaches a trace recorder to the Manager's public API; completed
// calls arrive as tap.Events (OpVdomAlloc … OpNewVDS). Pass nil (the
// default) to detach; when detached each call pays one nil check.
func (m *Manager) SetTap(t tap.Tap) { m.apiTap = t }

// tapOp forwards a completed API call to the attached tap, if any.
func (m *Manager) tapOp(e tap.Event) {
	if m.apiTap != nil {
		m.apiTap(e)
	}
}
