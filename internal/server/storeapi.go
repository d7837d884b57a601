package server

// The remote artifact store surface (GET/PUT /v1/store/...): replica-to-
// replica traffic, with internal/store.Remote as the client. The handlers
// trust nothing: content addresses are verified on write.

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/store"
)

// handleStoreGet serves one raw artifact record. Absence is 404 (the
// remote store client's miss signal), a malformed address is 400, and a
// replica running without a store has nothing — everything is absent.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	kind, ok := store.ParseKind(r.PathValue("kind"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown artifact kind " + r.PathValue("kind")})
		return
	}
	if s.cfg.Store == nil {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no artifact store on this replica"})
		return
	}
	data, err := s.cfg.Store.GetRaw(kind, r.PathValue("hash"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if data == nil {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no such record"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		s.metrics.incEncodeError()
	}
}

// handleStorePut accepts one raw artifact record. PutRaw verifies that
// the record's embedded key hashes to the claimed address, so a confused
// or malicious peer cannot poison another circuit's artifacts.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	kind, ok := store.ParseKind(r.PathValue("kind"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown artifact kind " + r.PathValue("kind")})
		return
	}
	if s.cfg.Store == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no artifact store on this replica"})
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading record: %v", err)})
		return
	}
	if err := s.cfg.Store.PutRaw(kind, r.PathValue("hash"), data); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
