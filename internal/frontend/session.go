package frontend

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DatabaseName is the single logical database every transport exposes
// (USE vap / a connection string's /vap path). The empty string is also
// accepted: VAP has exactly one schema.
const DatabaseName = "vap"

// Session is one client conversation with the query core, independent of
// the transport that carries it: the HTTP codec builds one per request
// from headers, the wire server keeps one per connection. It holds the
// authenticated tenant identity (which the governor's quotas and ceilings
// key on), the per-session variables, and a monotonic statement counter.
// Safe for concurrent use — the wire server's shutdown path may inspect a
// session while its command loop executes.
type Session struct {
	tenant string

	mu       sync.Mutex
	deadline time.Duration

	stmts atomic.Uint64
}

// NewSession returns a session for tenant (empty = the default tenant).
func NewSession(tenant string) *Session {
	return &Session{tenant: tenant}
}

// Tenant returns the session's governance identity.
func (s *Session) Tenant() string { return s.tenant }

// UseDB switches the session's current database. VAP exposes exactly one
// logical database, so anything but "vap" (or "") is an error and there is
// nothing to switch.
func (s *Session) UseDB(name string) error {
	if name != "" && !strings.EqualFold(name, DatabaseName) {
		return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("frontend: unknown database %q", name), MyErrno: MyErrUnknownDB}
	}
	return nil
}

// Set assigns one session variable. The one recognized variable is
// "deadline": a Go duration ("500ms", "30s") bounding every following
// statement; "0" clears it. It tightens — never widens — the transport's
// own handler timeout. Unknown names are an error so a typo cannot
// silently do nothing.
func (s *Session) Set(name, value string) error {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "deadline":
		d, err := time.ParseDuration(strings.TrimSpace(value))
		if err != nil {
			if strings.TrimSpace(value) == "0" {
				d = 0
			} else {
				return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("frontend: bad deadline %q: %v", value, err)}
			}
		}
		if d < 0 {
			return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("frontend: negative deadline %q", value)}
		}
		s.mu.Lock()
		s.deadline = d
		s.mu.Unlock()
		return nil
	default:
		return &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("frontend: unknown session variable %q", name)}
	}
}

// Deadline returns the session's statement deadline (0 = none).
func (s *Session) Deadline() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadline
}

// NextStmt increments and returns the session's statement counter
// (1-based). The wire server logs it; the counter also gives every
// statement a session-unique id for tracing.
func (s *Session) NextStmt() uint64 { return s.stmts.Add(1) }
