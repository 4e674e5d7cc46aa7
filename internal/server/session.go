// Package server turns the spreadsheet algebra into a concurrent
// multi-session service. The paper's SheetMusiq prototype (Sec. VI) is a
// single-user client; this package is the serving layer the ROADMAP's
// production system needs: a SessionManager owning many engine-backed
// sessions behind per-session mutexes, a process-wide stored-sheet catalog
// shared between them (so one session's binary operator can consume a
// sheet another session saved), and an HTTP/JSON API exposing one algebra
// step per request — the paper's one-operation-at-a-time interaction,
// preserved over the wire.
package server

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/wal"
)

// DefaultMaxSessions caps the session table when Config.MaxSessions is 0.
const DefaultMaxSessions = 64

// Config parameterises a Manager.
type Config struct {
	// MaxSessions caps live sessions; creating one past the cap evicts the
	// least-recently-used session. 0 means DefaultMaxSessions; negative
	// means unlimited.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long (0 disables).
	IdleTTL time.Duration
	// Seed populates each new session's private raw-table registry (e.g.
	// registering the demo datasets). It runs once per session at creation,
	// so it should only register pre-built relations, not generate data.
	Seed func(*sql.DB) error
	// Catalog is the shared stored-sheet catalog; nil creates a fresh one.
	Catalog *core.Catalog
	// AllowFilesystem permits ops that read or write server-local files
	// (load/savestate/loadstate/export). Off by default: remote callers
	// should not touch the server's disk.
	AllowFilesystem bool
	// Logger receives one structured line per request (request ID, route,
	// session, status, duration, engine span timings) plus lifecycle
	// events. Nil discards logs, which keeps tests quiet.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// handler. Off by default: profiles expose process internals.
	EnablePprof bool
	// Durability persists each session as a per-session op WAL plus
	// snapshot checkpoints under a data directory (cmd/sheetserver's
	// -data-dir). Nil keeps sessions memory-only. With a store set,
	// eviction and idle expiry checkpoint the session and park it on
	// disk; the next request for its id transparently rehydrates it, and
	// after a crash, sessions recover by snapshot + log-suffix replay.
	Durability *wal.Store
}

// Manager owns the session table: create/lookup/close plus idle-TTL and
// LRU-cap eviction. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	catalog *core.Catalog
	log     *slog.Logger
	store   *wal.Store // nil = no durability

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	// dormant holds durable sessions that are not in memory — found on
	// disk at startup, or checkpointed back out by eviction/expiry. A Get
	// for a dormant id rehydrates it lazily.
	dormant map[string]wal.SessionMeta
	// rehydrating dedupes concurrent Gets for the same dormant id.
	rehydrating map[string]chan struct{}
	// closing tracks sessions whose WAL is being checkpointed and closed
	// on a background goroutine; a Get or Close for such an id waits for
	// the channel before proceeding, so a rehydration can never race the
	// close still flushing the same directory.
	closing map[string]chan struct{}
	// wg counts in-flight WAL close goroutines; Shutdown waits on it.
	wg sync.WaitGroup

	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewManager builds a session manager. With Config.Durability set, the
// data directory is scanned for sessions persisted by earlier runs; they
// become dormant and rehydrate lazily on first touch.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	cat := cfg.Catalog
	if cat == nil {
		cat = core.NewCatalog()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	m := &Manager{
		cfg:         cfg,
		catalog:     cat,
		log:         log,
		store:       cfg.Durability,
		sessions:    map[string]*Session{},
		dormant:     map[string]wal.SessionMeta{},
		rehydrating: map[string]chan struct{}{},
		closing:     map[string]chan struct{}{},
		now:         time.Now,
	}
	if m.store != nil {
		metas, err := m.store.Sessions()
		if err != nil {
			m.log.Warn("scanning data dir", "err", err)
		}
		for _, meta := range metas {
			m.dormant[meta.ID] = meta
			// Ids keep growing across restarts so a new session can
			// never collide with a dormant one.
			if n := idNum(meta.ID); n > m.nextID {
				m.nextID = n
			}
		}
		sessDormant.Set(int64(len(m.dormant)))
		if len(m.dormant) > 0 {
			m.log.Info("found durable sessions", "count", len(m.dormant))
		}
	}
	return m
}

// Catalog returns the shared stored-sheet catalog.
func (m *Manager) Catalog() *core.Catalog { return m.catalog }

// Session is one user's spreadsheet session: an engine serialised by a
// mutex. Handlers funnel every engine access through Do, so concurrent
// requests against the same session queue up instead of racing.
type Session struct {
	id      string
	name    string
	created time.Time
	logger  *slog.Logger

	mu  sync.Mutex
	eng *engine.Engine

	// wlog is the session's durable op log (nil without durability). It
	// is only touched under s.mu.
	wlog *wal.SessionLog
	// recovered reports what rehydration did (nil for fresh sessions).
	recovered *wal.RecoveryStats

	// closed is atomic so the Manager can mark a session dead without
	// taking s.mu — a long-running engine op must not stall Close, LRU
	// eviction, or the TTL sweep (and with them every other session's
	// Create/Get/List, which wait on the manager mutex).
	closed atomic.Bool
	// parkedBy is the manager that parked this durable session on disk
	// (eviction or expiry). It is set before closed, so a handle that sees
	// closed reopens the session through parkedBy.Get instead of failing.
	parkedBy *Manager

	ops atomic.Int64

	// lastUsed is guarded by the Manager's mutex (it drives LRU/TTL
	// eviction, which the manager decides).
	lastUsed time.Time
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Name returns the session's optional label.
func (s *Session) Name() string { return s.name }

// ErrSessionClosed is returned by Do after the session was deleted, shut
// down, or evicted without durability; in-flight callers fail cleanly
// rather than driving a zombie.
var ErrSessionClosed = fmt.Errorf("server: session closed")

// Do runs fn with exclusive access to the session's engine. An op already
// in flight when the session is closed runs to completion; a later call on
// a handle to a parked session runs on the session reopened from disk.
func (s *Session) Do(fn func(*engine.Engine) error) error {
	s, err := s.lock()
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	s.ops.Add(1)
	return fn(s.eng)
}

// lock takes the mutex of the session a call runs on and returns it: this
// session while it is open, else — for a durable session parked by
// eviction or expiry — the one its manager's Get reopens, after waiting
// for the park to finish. Any other closed handle is gone.
func (s *Session) lock() (*Session, error) {
	for {
		if !s.closed.Load() {
			s.mu.Lock()
			if !s.closed.Load() {
				return s, nil
			}
			s.mu.Unlock()
		}
		if s.parkedBy == nil {
			return nil, ErrSessionClosed
		}
		live, ok := s.parkedBy.Get(s.id)
		if !ok {
			return nil, ErrSessionClosed
		}
		s = live
	}
}

// ApplyOp applies one engine op under the session mutex and, when the
// session is durable, appends the op to its WAL after it succeeds (only
// mutating ops are logged — reads like explain never hit the disk) and
// checkpoints every SnapshotEvery logged ops. The append happens before
// the result is returned, so an op the client saw acknowledged is always
// in the log. The op runs once, on the session lock returns.
func (s *Session) ApplyOp(op engine.Op) (*engine.Effect, error) {
	s, err := s.lock()
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	s.ops.Add(1)
	eff, err := s.eng.Apply(op)
	if err != nil {
		return nil, err
	}
	if s.wlog != nil && eff.Mutated {
		if werr := s.wlog.AppendOp(op); werr != nil {
			// The op mutated memory but is not durable; surface that
			// loudly rather than acknowledging a write the log lost.
			return nil, fmt.Errorf("server: op applied but not logged: %w", werr)
		}
		if s.wlog.ShouldCheckpoint() {
			if cerr := s.wlog.Checkpoint(s.eng); cerr != nil {
				s.log().Warn("checkpoint failed", "session", s.id, "err", cerr)
			}
		}
	}
	return eff, nil
}

// log returns the session's logger (set at creation; never nil).
func (s *Session) log() *slog.Logger { return s.logger }

// newEngine builds a fresh seeded engine for a new or rehydrating session.
func (m *Manager) newEngine() (*engine.Engine, error) {
	eng := engine.New(m.catalog)
	if m.cfg.Seed != nil {
		if err := m.cfg.Seed(eng.DB()); err != nil {
			return nil, fmt.Errorf("server: seeding session tables: %w", err)
		}
	}
	return eng, nil
}

// Create opens a new session. The id is server-assigned ("s1", "s2", ...);
// name is an optional caller label. Creation evicts expired sessions
// first, then the LRU session if the cap is reached. With durability on,
// the session's WAL directory is created before the session serves its
// first op.
func (m *Manager) Create(name string) (*Session, error) {
	eng, err := m.newEngine()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.sweepLocked(now)
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		m.evictLRULocked()
	}
	m.nextID++
	s := &Session{
		id:       fmt.Sprintf("s%d", m.nextID),
		name:     name,
		created:  now,
		logger:   m.log,
		eng:      eng,
		lastUsed: now,
	}
	if m.store != nil {
		wlog, err := m.store.Open(wal.SessionMeta{ID: s.id, Name: name, Created: now})
		if err != nil {
			return nil, fmt.Errorf("server: opening session wal: %w", err)
		}
		s.wlog = wlog
	}
	m.sessions[s.id] = s
	sessCreated.Inc()
	sessLive.Set(int64(len(m.sessions)))
	m.log.Debug("session created", "session", s.id, "name", name)
	return s, nil
}

// Get returns the session and refreshes its idle clock. With durability
// on, an id that is parked on disk — evicted earlier, expired, or left by
// a previous process — is rehydrated: checkpoint restore plus log-suffix
// replay, deduped across concurrent callers.
func (m *Manager) Get(id string) (*Session, bool) {
	for {
		m.mu.Lock()
		if s, ok := m.sessions[id]; ok {
			if ttl := m.cfg.IdleTTL; ttl > 0 && m.now().Sub(s.lastUsed) > ttl {
				m.closeLocked(s, reasonExpired)
				m.mu.Unlock()
				// With durability the expired session just went dormant;
				// loop to rehydrate it. Without, it is gone.
				if m.store == nil {
					return nil, false
				}
				continue
			}
			s.lastUsed = m.now()
			m.mu.Unlock()
			return s, true
		}
		if ch, ok := m.closing[id]; ok {
			m.mu.Unlock()
			<-ch // WAL flush in flight; wait, then re-check
			continue
		}
		if ch, ok := m.rehydrating[id]; ok {
			m.mu.Unlock()
			<-ch // another caller is rehydrating; wait for its result
			continue
		}
		meta, ok := m.dormant[id]
		if !ok {
			m.mu.Unlock()
			return nil, false
		}
		ch := make(chan struct{})
		m.rehydrating[id] = ch
		delete(m.dormant, id)
		sessDormant.Set(int64(len(m.dormant)))
		m.mu.Unlock()

		s, err := m.rehydrate(meta)

		m.mu.Lock()
		delete(m.rehydrating, id)
		if err != nil {
			m.dormant[id] = meta // leave the data for a later attempt
			sessDormant.Set(int64(len(m.dormant)))
			m.mu.Unlock()
			close(ch)
			m.log.Error("session rehydration failed", "session", id, "err", err)
			return nil, false
		}
		now := m.now()
		m.sweepLocked(now)
		if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
			m.evictLRULocked()
		}
		s.lastUsed = now
		m.sessions[id] = s
		sessRehydrated.Inc()
		sessLive.Set(int64(len(m.sessions)))
		m.mu.Unlock()
		close(ch)
		return s, true
	}
}

// rehydrate rebuilds a dormant session from its WAL directory. Runs
// without the manager mutex: recovery replays real ops and may take a
// while, and other sessions must keep serving.
func (m *Manager) rehydrate(meta wal.SessionMeta) (*Session, error) {
	wlog, err := m.store.Open(meta)
	if err != nil {
		return nil, err
	}
	eng, stats, err := wlog.Recover(m.newEngine)
	if err != nil {
		_ = wlog.Close(nil)
		return nil, err
	}
	if stats.ReplayErr != "" {
		m.log.Warn("session recovered partially", "session", meta.ID, "err", stats.ReplayErr)
	}
	m.log.Debug("session rehydrated", "session", meta.ID,
		"checkpoint_seq", stats.CheckpointSeq, "replayed", stats.Replayed, "fallbacks", stats.Fallbacks)
	return &Session{
		id:        meta.ID,
		name:      meta.Name,
		created:   meta.Created,
		logger:    m.log,
		eng:       eng,
		wlog:      wlog,
		recovered: &stats,
	}, nil
}

// Close terminates a session; it reports whether the id existed. With
// durability on, an explicit close also deletes the session's durable
// state — unlike eviction/expiry, which park it on disk.
func (m *Manager) Close(id string) bool {
	for {
		m.mu.Lock()
		if s, ok := m.sessions[id]; ok {
			m.closeLocked(s, reasonClosed)
			m.mu.Unlock()
			return true
		}
		if ch, ok := m.closing[id]; ok {
			m.mu.Unlock()
			<-ch
			continue
		}
		if ch, ok := m.rehydrating[id]; ok {
			m.mu.Unlock()
			<-ch
			continue
		}
		if _, ok := m.dormant[id]; ok {
			delete(m.dormant, id)
			sessDormant.Set(int64(len(m.dormant)))
			m.mu.Unlock()
			if err := m.store.Remove(id); err != nil {
				m.log.Warn("removing session data", "session", id, "err", err)
			}
			sessClosed.Inc()
			return true
		}
		m.mu.Unlock()
		return false
	}
}

// closeLocked removes the session and marks it closed, so later Do calls
// fail or, on a durable session it parks, reopen it. It deliberately does
// NOT take s.mu: waiting for an in-flight engine op here would hold the
// manager mutex (the caller has it) for the op's whole duration, stalling
// every other session. For durable sessions the WAL checkpoint + close
// happens on a background goroutine for the same reason; Get/Close/Shutdown
// synchronise with it via m.closing. Caller holds m.mu.
func (m *Manager) closeLocked(s *Session, reason closeReason) {
	delete(m.sessions, s.id)
	if s.wlog != nil && (reason == reasonEvicted || reason == reasonExpired) {
		s.parkedBy = m
	}
	s.closed.Store(true)
	reason.counter().Inc()
	sessLive.Set(int64(len(m.sessions)))
	m.log.Debug("session closed", "session", s.id, "reason", reason.String())
	if s.wlog == nil {
		return
	}
	ch := make(chan struct{})
	m.closing[s.id] = ch
	m.wg.Add(1)
	go m.finishClose(s, ch, reason)
}

// finishClose checkpoints and closes a durable session's WAL after any
// in-flight op drains, then files the session back under dormant (or
// deletes its data for an explicit close).
func (m *Manager) finishClose(s *Session, ch chan struct{}, reason closeReason) {
	defer m.wg.Done()
	s.mu.Lock()
	if reason == reasonClosed {
		// The directory is about to be deleted; no point checkpointing.
		if err := s.wlog.Close(nil); err != nil {
			m.log.Warn("closing session wal", "session", s.id, "err", err)
		}
		if err := m.store.Remove(s.id); err != nil {
			m.log.Warn("removing session data", "session", s.id, "err", err)
		}
	} else {
		if err := s.wlog.Close(s.eng); err != nil {
			m.log.Warn("flushing session wal", "session", s.id, "err", err)
		}
	}
	s.mu.Unlock()
	m.mu.Lock()
	delete(m.closing, s.id)
	if reason != reasonClosed {
		m.dormant[s.id] = wal.SessionMeta{ID: s.id, Name: s.name, Created: s.created}
		sessDormant.Set(int64(len(m.dormant)))
	}
	m.mu.Unlock()
	close(ch)
}

// Shutdown closes every live session — checkpointing durable ones so a
// restart rehydrates them without replay — and waits for the WAL flushes
// to finish. The HTTP layer calls this after draining requests.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	for _, s := range m.sessions {
		m.closeLocked(s, reasonShutdown)
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// evictLRULocked drops the least-recently-used session. Caller holds m.mu.
func (m *Manager) evictLRULocked() {
	var victim *Session
	for _, s := range m.sessions {
		if victim == nil || s.lastUsed.Before(victim.lastUsed) {
			victim = s
		}
	}
	if victim != nil {
		m.closeLocked(victim, reasonEvicted)
	}
}

// Sweep evicts sessions idle past the TTL and returns how many it closed.
// The serving loop calls this on a ticker; it is also applied lazily on
// Create and Get.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked(m.now())
}

func (m *Manager) sweepLocked(now time.Time) int {
	ttl := m.cfg.IdleTTL
	if ttl <= 0 {
		return 0
	}
	n := 0
	for _, s := range m.sessions {
		if now.Sub(s.lastUsed) > ttl {
			m.closeLocked(s, reasonExpired)
			n++
		}
	}
	return n
}

// Len returns the live session count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Info summarises one session for listings.
type Info struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Sheet    string    `json:"sheet,omitempty"`
	Version  int       `json:"version"`
	Ops      int64     `json:"ops"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	// Dormant marks a durable session parked on disk; touching it (any
	// /v1/sessions/{id}/... request) rehydrates it.
	Dormant bool `json:"dormant,omitempty"`
}

// List summarises the live sessions in id order, followed by dormant
// durable sessions. The per-session engine reads happen after m.mu is
// released, so a session stuck in a long op delays only this listing, not
// the whole manager.
func (m *Manager) List() []Info {
	m.mu.Lock()
	live := make([]*Session, 0, len(m.sessions))
	out := make([]Info, 0, len(m.sessions)+len(m.dormant))
	for _, s := range m.sessions {
		live = append(live, s)
		out = append(out, Info{
			ID:       s.id,
			Name:     s.name,
			Ops:      s.ops.Load(),
			Created:  s.created,
			LastUsed: s.lastUsed,
		})
	}
	dormant := make([]Info, 0, len(m.dormant))
	for _, meta := range m.dormant {
		dormant = append(dormant, Info{ID: meta.ID, Name: meta.Name, Created: meta.Created, Dormant: true})
	}
	m.mu.Unlock()
	for i, s := range live {
		s.mu.Lock()
		out[i].Sheet = s.eng.SheetName()
		out[i].Version = s.eng.Version()
		s.mu.Unlock()
	}
	out = append(out, dormant...)
	sortInfos(out)
	return out
}

// sortInfos orders by numeric id ("s2" before "s10").
func sortInfos(infos []Info) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && idNum(infos[j].ID) < idNum(infos[j-1].ID); j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

func idNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}
