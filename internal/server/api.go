package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/obs"
)

// The HTTP/JSON surface. One algebra operator per request, mirroring the
// paper's one-operation-at-a-time interaction model:
//
//	POST   /v1/sessions              create a session            {"name": "sam"}
//	GET    /v1/sessions              list live sessions
//	DELETE /v1/sessions/{id}         close a session
//	POST   /v1/sessions/{id}/op      apply one engine.Op         {"op": "select", ...}
//	GET    /v1/sessions/{id}/state   the Sec. V-A query state
//	GET    /v1/sessions/{id}/render  flat rows + recursive group tree [?limit=N]
//	GET    /v1/sessions/{id}/sql     the SQL the state compiles to
//	GET    /v1/sessions/{id}/plan    the evaluation stage plan (cache hits/recomputes)
//	GET    /v1/sessions/{id}/deps    the stage/column dependency graph (?node=&to= focus a query)
//	GET    /v1/sessions/{id}/menu/{column}  the Sec. VI contextual menu
//	GET    /v1/sessions/{id}/tables  the session's raw tables
//	GET    /v1/catalog               the shared stored-sheet catalog
//	GET    /v1/metrics               process metrics snapshot (obs registry)
//	GET    /v1/healthz               liveness
//
// Every response carries an X-Request-ID header (the inbound one when the
// caller set it, a fresh one otherwise). Errors are JSON:
// {"error": "...", "request_id": "..."} with 400 (bad op), 403 (filesystem
// op while disabled), 404 (unknown session), 409 (no current sheet), or
// 410 (session deleted, shut down, or evicted without durability
// mid-request; a parked durable session reopens instead).

// errorBody is the uniform error envelope. RequestID ties a client-side
// failure report to the server's log line for the same request.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// createRequest is the POST /v1/sessions body.
type createRequest struct {
	Name string `json:"name,omitempty"`
}

// createResponse acknowledges a created session.
type createResponse struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
}

// renderResponse is the full presentation: the evaluated grid and the
// recursive group tree over it.
type renderResponse struct {
	*engine.Grid
	Tree *engine.TreeNode `json:"tree"`
}

// sqlResponse carries the generated SQL and its staged form.
type sqlResponse struct {
	SQL    string   `json:"sql"`
	Stages []string `json:"stages"`
}

// NewHandler builds the API handler over a session manager. Every route is
// registered through Manager.instrument, which provides per-route metrics,
// request-ID propagation, and the per-request log line.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, fn http.HandlerFunc) {
		mux.HandleFunc(pattern, m.instrument(route, fn))
	}

	handle("GET /v1/healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	handle("GET /v1/metrics", "metrics", metricsHandler)

	handle("GET /v1/catalog", "catalog", func(w http.ResponseWriter, r *http.Request) {
		names := m.Catalog().Names()
		if names == nil {
			names = []string{}
		}
		writeJSON(w, http.StatusOK, map[string][]string{"sheets": names})
	})

	handle("POST /v1/sessions", "session_create", func(w http.ResponseWriter, r *http.Request) {
		var req createRequest
		// Every createRequest field is optional, so a bodiless POST (plain
		// `curl -X POST`) creates an anonymous session rather than 400ing.
		if err := decodeBody(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
			writeError(w, r, bodyStatus(err), err)
			return
		}
		s, err := m.Create(req.Name)
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusCreated, createResponse{ID: s.ID(), Name: s.Name()})
	})

	handle("GET /v1/sessions", "session_list", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]Info{"sessions": m.List()})
	})

	handle("DELETE /v1/sessions/{id}", "session_close", func(w http.ResponseWriter, r *http.Request) {
		if !m.Close(r.PathValue("id")) {
			writeError(w, r, http.StatusNotFound, fmt.Errorf("no session %q", r.PathValue("id")))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	handle("POST /v1/sessions/{id}/op", "op", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var op engine.Op
		if err := decodeBody(w, r, &op); err != nil {
			writeError(w, r, bodyStatus(err), err)
			return
		}
		if op.TouchesFilesystem() && !m.cfg.AllowFilesystem {
			writeError(w, r, http.StatusForbidden,
				fmt.Errorf("op %q touches the server filesystem; start the server with filesystem ops enabled", op.Op))
			return
		}
		// ApplyOp rather than Do: on durable sessions the successful op is
		// appended to the session WAL (and periodically checkpointed)
		// before the response is written.
		sp := obs.StartSpan(r.Context(), "engine.apply")
		eff, err := s.ApplyOp(op)
		sp.End()
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, eff)
	}))

	handle("GET /v1/sessions/{id}/state", "state", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var st *engine.StateInfo
		err := doSpan(r, s, "engine.state", func(e *engine.Engine) error {
			var err error
			st, err = e.State()
			return err
		})
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}))

	handle("GET /v1/sessions/{id}/render", "render", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		limit := 0
		if q := r.URL.Query().Get("limit"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
				return
			}
			limit = n
		}
		var resp renderResponse
		err := doSpan(r, s, "engine.render", func(e *engine.Engine) error {
			grid, err := e.Grid(limit)
			if err != nil {
				return err
			}
			tree, err := e.Tree()
			if err != nil {
				return err
			}
			resp = renderResponse{Grid: grid, Tree: tree}
			return nil
		})
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	handle("GET /v1/sessions/{id}/sql", "sql", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var resp sqlResponse
		err := doSpan(r, s, "engine.sql", func(e *engine.Engine) error {
			text, err := e.SQL()
			if err != nil {
				return err
			}
			stages, err := e.Stages()
			if err != nil {
				return err
			}
			resp = sqlResponse{SQL: text, Stages: stages}
			return nil
		})
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	handle("GET /v1/sessions/{id}/plan", "plan", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var plan *engine.PlanInfo
		err := doSpan(r, s, "engine.plan", func(e *engine.Engine) error {
			var err error
			plan, err = e.Plan()
			return err
		})
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, plan)
	}))

	handle("GET /v1/sessions/{id}/deps", "deps", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var deps *engine.DepsInfo
		err := doSpan(r, s, "engine.deps", func(e *engine.Engine) error {
			var err error
			deps, err = e.Deps(r.URL.Query().Get("node"), r.URL.Query().Get("to"))
			return err
		})
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, deps)
	}))

	handle("GET /v1/sessions/{id}/menu/{column}", "menu", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var menu *engine.MenuInfo
		err := doSpan(r, s, "engine.menu", func(e *engine.Engine) error {
			var err error
			menu, err = e.Menu(r.PathValue("column"))
			return err
		})
		if err != nil {
			writeError(w, r, opStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, menu)
	}))

	handle("GET /v1/sessions/{id}/tables", "tables", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		var names []string
		_ = s.Do(func(e *engine.Engine) error {
			names = e.TableNames()
			return nil
		})
		if names == nil {
			names = []string{}
		}
		writeJSON(w, http.StatusOK, map[string][]string{"tables": names})
	}))

	if m.cfg.EnablePprof {
		mountPprof(mux)
	}

	return mux
}

// doSpan runs fn on the session's engine inside a trace span, so the
// engine time (including any wait for the per-session mutex) shows up in
// the request's span summary.
func doSpan(r *http.Request, s *Session, name string, fn func(*engine.Engine) error) error {
	sp := obs.StartSpan(r.Context(), name)
	defer sp.End()
	return s.Do(fn)
}

// withSession resolves {id} and hands the session to the handler.
func withSession(m *Manager, h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s, ok := m.Get(id)
		if !ok {
			writeError(w, r, http.StatusNotFound, fmt.Errorf("no session %q", id))
			return
		}
		h(w, r, s)
	}
}

// opStatus maps engine/session errors to status codes.
func opStatus(err error) int {
	switch {
	case errors.Is(err, ErrSessionClosed):
		return http.StatusGone
	case errors.Is(err, engine.ErrNoSheet):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// maxBodyBytes bounds a request body; a larger one is answered 413. An op
// is a few hundred bytes, so the bound leaves generous room.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes one JSON value: unknown fields, anything but
// whitespace after the value, and a body over maxBodyBytes are errors. An
// empty body yields an error wrapping io.EOF.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return fmt.Errorf("bad request body: trailing data after the JSON value: %w", err)
	}
	return nil
}

// bodyStatus maps a decodeBody error to its status: 413 for an oversized
// body, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the JSON error envelope, stamped with the request's ID
// so a client-reported failure can be matched to the server's log line.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), RequestID: obs.RequestID(r.Context())})
}

// ListenAndServe runs the API on addr until ctx is cancelled, then drains
// in-flight requests via http.Server.Shutdown. When an idle TTL is
// configured, a background ticker sweeps expired sessions.
func ListenAndServe(ctx context.Context, addr string, m *Manager) error {
	srv := &http.Server{
		Addr:         addr,
		Handler:      NewHandler(m),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	return serve(ctx, srv, m)
}

// serve factors the loop so tests can drive it with a pre-built server.
func serve(ctx context.Context, srv *http.Server, m *Manager) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var sweep <-chan time.Time
	if ttl := m.cfg.IdleTTL; ttl > 0 {
		interval := ttl / 2
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
		if interval < time.Second {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		sweep = t.C
	}

	for {
		select {
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case <-sweep:
			m.Sweep()
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutCtx); err != nil {
				return err
			}
			// Drain the listener goroutine's ErrServerClosed, then flush
			// sessions: durable ones checkpoint and close their WALs so a
			// restart rehydrates them with zero replayed ops.
			<-errc
			m.Shutdown()
			return nil
		}
	}
}
