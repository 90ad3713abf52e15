// Package buggyscheme is the differential fixture: a synthetic protect
// scheme that commits exactly one violation per dbvet pass. The
// differential test pins each pass to one diagnostic at one position,
// proving the passes neither miss their target class nor bleed into
// each other's.
package buggyscheme

import (
	"repro/internal/latch"
)

type scheme struct {
	prot latch.Latch //dbvet:latch protection
	slog latch.Latch //dbvet:latch syslog
}

// Violation 1 (latchorder): acquires the protection latch under the
// system-log latch.
func (s *scheme) logThenProtect() {
	s.slog.Lock()
	defer s.slog.Unlock()
	s.prot.Lock()
	defer s.prot.Unlock()
}
