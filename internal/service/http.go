// HTTP surface of the continuous-query service. Every endpoint lives
// under /v1/ and authenticates with `Authorization: Bearer <token>`:
//
//	POST   /v1/queries              submit CQL  {"cql": "...", "buffer_bytes": n}
//	GET    /v1/queries              list the tenant's standing queries
//	GET    /v1/queries/{id}         inspect one query (status, plan, sharing, throughput)
//	DELETE /v1/queries/{id}         kill a query (final snapshot returned)
//	GET    /v1/queries/{id}/results stream results: long-poll by default,
//	                                SSE with ?stream=sse or Accept: text/event-stream
//	GET    /v1/tenant               the caller's quota usage and counters
//	GET    /healthz                 unauthenticated liveness probe
//
// The same handler is mounted on the telemetry server and, when
// pipes.Config.ServiceAddr is set, on a dedicated listener.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// longPollDefault/longPollMax bound the ?wait= long-poll window.
const (
	longPollDefault = 10 * time.Second
	longPollMax     = 60 * time.Second
	maxBodyBytes    = 1 << 20
	batchDefault    = 256
	batchMax        = 4096
)

// submitRequest is the POST /v1/queries body.
type submitRequest struct {
	CQL string `json:"cql"`
	// BufferBytes sizes the query's result buffer (0 = service default).
	BufferBytes int `json:"buffer_bytes"`
}

// Handler returns the service's HTTP handler, rooted at "/".
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/queries", s.withTenant(s.handleSubmit))
	mux.HandleFunc("GET /v1/queries", s.withTenant(s.handleList))
	mux.HandleFunc("GET /v1/queries/{id}", s.withTenant(s.handleGet))
	mux.HandleFunc("DELETE /v1/queries/{id}", s.withTenant(s.handleKill))
	mux.HandleFunc("GET /v1/queries/{id}/results", s.withTenant(s.handleResults))
	mux.HandleFunc("GET /v1/tenant", s.withTenant(s.handleTenant))
	return mux
}

// withTenant authenticates the bearer token and passes the resolved
// tenant to h.
func (s *Service) withTenant(h func(w http.ResponseWriter, r *http.Request, tenant string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		token, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok {
			writeError(w, errUnauthorized())
			return
		}
		tenant, serr := s.Authenticate(strings.TrimSpace(token))
		if serr != nil {
			writeError(w, serr)
			return
		}
		h(w, r, tenant)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, e.Status, map[string]*Error{"error": e})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request, tenant string) {
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, errBadRequest("invalid JSON body: "+err.Error()))
		return
	}
	if strings.TrimSpace(req.CQL) == "" {
		writeError(w, errBadRequest("missing \"cql\" field"))
		return
	}
	info, serr := s.Submit(tenant, req.CQL, req.BufferBytes)
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request, tenant string) {
	writeJSON(w, http.StatusOK, map[string]any{"queries": s.List(tenant)})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request, tenant string) {
	info, serr := s.Get(tenant, r.PathValue("id"))
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleKill(w http.ResponseWriter, r *http.Request, tenant string) {
	info, serr := s.Kill(tenant, r.PathValue("id"))
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleTenant(w http.ResponseWriter, _ *http.Request, tenant string) {
	for _, st := range s.TenantStats() {
		if st.Name == tenant {
			s.mu.Lock()
			quota := s.tenants[tenant].cfg.Quota
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]any{
				"tenant": tenant,
				"quota": map[string]int{
					"max_queries":      quota.MaxQueries,
					"max_operators":    quota.MaxOperators,
					"max_result_bytes": quota.MaxResultBytes,
				},
				"in_use": map[string]int{
					"queries":      st.ActiveQueries,
					"operators":    st.PrivateOperators,
					"result_bytes": st.BufferBytesReserved,
				},
				"admission_rejects": st.AdmissionRejects,
				"results":           st.Results,
				"result_shed":       st.ResultShed,
			})
			return
		}
	}
	writeError(w, errUnauthorized())
}

// queryValue returns the first value of the parameter name in a raw URL
// query, as url.ParseQuery(raw).Get(name) does — pairs with a semicolon
// or a malformed escape are skipped — without building url.Values.
// Nothing is allocated unless the pair needs unescaping.
func queryValue(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryUint parses an unsigned query parameter, returning def when
// absent.
func queryUint(r *http.Request, name string, def uint64) (uint64, *Error) {
	return parseUint(queryValue(r.URL.RawQuery, name), name, "parameter", def)
}

// parseUint parses raw, the value of the request's name parameter or
// header (kind), returning def when raw is empty.
func parseUint(raw, name, kind string, def uint64) (uint64, *Error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, errBadRequest(fmt.Sprintf("invalid %q %s: %v", name, kind, err))
	}
	return v, nil
}

// resumeCursor is the seq a results request reads after: ?after= when
// given, else the Last-Event-ID header an EventSource sends when it
// reconnects (SSE ids are seqs), else 0.
func resumeCursor(r *http.Request) (uint64, *Error) {
	if raw := queryValue(r.URL.RawQuery, "after"); raw != "" {
		return parseUint(raw, "after", "parameter", 0)
	}
	return parseUint(r.Header.Get("Last-Event-ID"), "Last-Event-ID", "header", 0)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request, tenant string) {
	after, serr := resumeCursor(r)
	if serr != nil {
		writeError(w, serr)
		return
	}
	max, serr := queryUint(r, "max", batchDefault)
	if serr != nil {
		writeError(w, serr)
		return
	}
	if max == 0 || max > batchMax {
		max = batchMax
	}
	reader, serr := s.Reader(tenant, r.PathValue("id"), after)
	if serr != nil {
		writeError(w, serr)
		return
	}
	defer reader.Close()

	if queryValue(r.URL.RawQuery, "stream") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveSSE(w, r, reader, int(max))
		return
	}
	s.serveLongPoll(w, r, reader, int(max))
}

// serveLongPoll answers one page of results, waiting up to ?wait=
// (default 10s, "0" = return immediately) for the first entry.
func (s *Service) serveLongPoll(w http.ResponseWriter, r *http.Request, reader *Reader, batch int) {
	wait := longPollDefault
	if raw := queryValue(r.URL.RawQuery, "wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			writeError(w, errBadRequest(fmt.Sprintf("invalid %q parameter: %v", "wait", err)))
			return
		}
		wait = min(max(d, 0), longPollMax)
	}

	var (
		entries []Entry
		dropped int64
		done    bool
	)
	if wait <= 0 {
		entries, dropped, done = reader.TryNext(batch)
	} else {
		// Derive from the request context so client disconnects cut the
		// wait short.
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		var err error
		entries, dropped, done, err = reader.Next(ctx, batch)
		if err != nil {
			// Timeout or client gone: an empty page is the contract.
			entries, dropped, done = nil, 0, false
		}
	}
	pb := pagePool.Get().(*pageBuffers)
	defer pagePool.Put(pb)
	// Sized up front, so a pool miss (the pool empties over two garbage
	// collections) costs one allocation per buffer, not a growth series.
	size := pageFixed
	for _, e := range entries {
		size += itemFixed + len(e.Data)
	}
	pb.compact = appendPage(slices.Grow(pb.compact[:0], size), entries, dropped, reader.Cursor(), done)
	// The page's bytes are those json.Encoder with SetIndent("", "  ")
	// writes for the same document: the indented page and a newline.
	// Indent cannot fail: every Data is a valid JSON rendering.
	pb.indented.Reset()
	_ = json.Indent(&pb.indented, pb.compact, "", "  ")
	pb.indented.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(pb.indented.Bytes())
}

// pageBuffers are the two buffers a long-poll page is built in, reused
// across requests through pagePool: the compact page and its indented
// rendering.
type pageBuffers struct {
	compact  []byte
	indented bytes.Buffer
}

var pagePool = sync.Pool{New: func() any { return new(pageBuffers) }}

// pageFixed and itemFixed bound the bytes appendPage writes around the
// results and appendItem around a value: the keys, the punctuation and
// three integers of at most 20 digits and a sign.
const (
	pageFixed = len(`{"results":[],"dropped":,"next":,"done":false}`) + 2*21
	itemFixed = len(`,{"seq":,"start":,"end":,"value":}`) + 3*21
)

// appendPage appends the compact long-poll page to dst: the results
// past the cursor, how many were shed out from under it, the cursor for
// the next call, and whether the stream is complete.
func appendPage(dst []byte, entries []Entry, dropped int64, next uint64, done bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendItem(dst, e)
	}
	dst = append(dst, `],"dropped":`...)
	dst = strconv.AppendInt(dst, dropped, 10)
	dst = append(dst, `,"next":`...)
	dst = strconv.AppendUint(dst, next, 10)
	dst = append(dst, `,"done":`...)
	dst = strconv.AppendBool(dst, done)
	return append(dst, '}')
}

// appendItem appends one result's wire object to dst, with Data spliced
// in verbatim as its value: {"seq":…,"start":…,"end":…,"value":…}.
func appendItem(dst []byte, e Entry) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, int64(e.Start), 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, int64(e.End), 10)
	dst = append(dst, `,"value":`...)
	dst = append(dst, e.Data...)
	return append(dst, '}')
}

// serveSSE streams results as server-sent events until end-of-stream or
// client disconnect. Frames: `event: result` with appendItem's object,
// `event: shed` with {"dropped":n} when the cursor skipped evicted
// entries, `event: done` at end-of-stream. Each batch is framed into
// one reused buffer and written once.
func (s *Service) serveSSE(w http.ResponseWriter, r *http.Request, reader *Reader, batch int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errBadRequest("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ctx := r.Context()
	var frame []byte
	for {
		entries, dropped, done, err := reader.Next(ctx, batch)
		if err != nil {
			return // client went away
		}
		frame = appendSSE(frame[:0], entries, dropped, done)
		if _, err := w.Write(frame); err != nil {
			return
		}
		flusher.Flush()
		if done {
			return
		}
	}
}

// appendSSE appends one batch's events to dst: a shed event when dropped
// is positive, one result event per entry, and the done event last. A
// result's data line is appendItem's object.
func appendSSE(dst []byte, entries []Entry, dropped int64, done bool) []byte {
	if dropped > 0 {
		dst = append(dst, "event: shed\ndata: {\"dropped\":"...)
		dst = strconv.AppendInt(dst, dropped, 10)
		dst = append(dst, "}\n\n"...)
	}
	for _, e := range entries {
		dst = append(dst, "id: "...)
		dst = strconv.AppendUint(dst, e.Seq, 10)
		dst = append(dst, "\nevent: result\ndata: "...)
		dst = appendItem(dst, e)
		dst = append(dst, "\n\n"...)
	}
	if done {
		dst = append(dst, "event: done\ndata: {}\n\n"...)
	}
	return dst
}
