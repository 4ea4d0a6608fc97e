package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/sema"
	"repro/internal/token"
)

// BatchRequest is the JSON body of POST /v1/batch: many named programs
// analyzed through one shared interner and the process-global memo cache,
// exactly like the `arrayflow batch` CLI.
type BatchRequest struct {
	// Programs are analyzed in order; results stream back in the same
	// order. Names appear in error positions and in the response items.
	Programs []BatchProgram `json:"programs"`
	// Vectors toggles the §6 distance-vector extension on tight nests
	// (the CLI's -vectors flag).
	Vectors bool `json:"vectors,omitempty"`
}

// BatchProgram is one named program of a BatchRequest.
type BatchProgram struct {
	// Name is the display name used in diagnostics (like a CLI filename).
	Name string `json:"name"`
	// Src is the mini-language source text.
	Src string `json:"src"`
}

// BatchItem is one NDJSON line of a /v1/batch response: exactly one of
// Report and Errors is set. Report holds the same bytes `arrayflow
// -program` prints for the program; Errors holds the positioned front-end
// (or analysis) error lines.
type BatchItem struct {
	Name   string   `json:"name"`
	Report string   `json:"report,omitempty"`
	Errors []string `json:"errors,omitempty"`
}

// maxBatchPrograms bounds one request's program count; the body cap bounds
// the total source size, this bounds the per-item bookkeeping.
const maxBatchPrograms = 4096

// handleBatch implements POST /v1/batch. The request is a BatchRequest
// JSON document; the response streams one BatchItem per program as NDJSON
// (application/x-ndjson, one JSON object per line, flushed per line) in
// input order. Front-end and analysis failures are per-program: one bad
// program reports its errors without sinking the rest, mirroring the batch
// CLI's per-file isolation. The whole batch occupies a single worker slot
// and must fit the request deadline and body cap; clients with bigger
// corpora split them across requests.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.counters.batch.Add(1)
	done := s.admit(w, r)
	if done == nil {
		return
	}
	defer done()
	t0 := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req BatchRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		s.badRequest(w, "bad_json", fmt.Sprintf("request body is not a valid batch document: %s", err))
		return
	}
	if len(req.Programs) == 0 {
		s.badRequest(w, "empty_batch", "batch request names no programs")
		return
	}
	if len(req.Programs) > maxBatchPrograms {
		s.counters.rejectedOversize.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			fmt.Sprintf("batch has %d programs, cap is %d", len(req.Programs), maxBatchPrograms), 0)
		return
	}
	s.counters.batchPrograms.Add(int64(len(req.Programs)))

	// Front end: one intern table across the whole request, so identical
	// identifiers across programs share symbols (the batch CLI's move).
	in := token.NewInterner()
	progs := make([]*ast.Program, len(req.Programs))
	items := make([]BatchItem, len(req.Programs))
	for i, p := range req.Programs {
		items[i].Name = p.Name
		prog, fail := sema.Load([]byte(p.Src), in)
		if fail != nil {
			items[i].Errors = fail.Lines(p.Name)
		}
		progs[i] = prog
	}

	opts := s.driverOptions(req.Vectors)
	results := driver.AnalyzeBatch(progs, opts)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i, res := range results {
		switch {
		case items[i].Errors != nil:
			// front-end failure already recorded
		case res.Err != nil:
			items[i].Errors = []string{fmt.Sprintf("%s: analyze: %s", items[i].Name, res.Err)}
		default:
			items[i].Report = res.Analysis.Report()
		}
		if items[i].Errors != nil {
			s.counters.batchProgramFails.Add(1)
			s.counters.frontEndErrors.Add(1)
		}
		if err := enc.Encode(items[i]); err != nil {
			// The client went away; the analysis ran, so the request
			// still counts as completed.
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.counters.completed.Add(1)
	s.latency.observe(time.Since(t0))
}
