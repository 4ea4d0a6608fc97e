package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal HTTP client for the /v1 API. It is what library
// users get from arrayflow.NewServiceClient and what the service's load
// tests drive; every method is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a Client for the service at baseURL (e.g.
// "http://127.0.0.1:8377"). A trailing slash is tolerated.
//
// Each Client sends through its own copy of http.DefaultTransport whose
// idle pool for the service's host is as deep as its whole idle pool. The
// default keeps two idle connections per host, so a Client shared by more
// goroutines closed and redialed most of its connections.
func NewClient(baseURL string) *Client {
	var rt http.RoundTripper = http.DefaultTransport
	if t, ok := rt.(*http.Transport); ok {
		t = t.Clone()
		t.MaxIdleConnsPerHost = t.MaxIdleConns
		rt = t
	}
	return &Client{base: strings.TrimSuffix(baseURL, "/"), hc: &http.Client{Transport: rt}}
}

// StatusError is returned when the service answers with an error status:
// it carries the HTTP status, the machine-readable envelope code when the
// body was a JSON envelope (empty otherwise), the raw body, and the
// Retry-After value in seconds (0 when absent).
type StatusError struct {
	Status     int
	Code       string
	Body       string
	RetryAfter int
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: HTTP %d (%s)", e.Status, e.Code)
	}
	return fmt.Sprintf("service: HTTP %d", e.Status)
}

// statusError decodes an error response into a StatusError.
func statusError(resp *http.Response, body []byte) *StatusError {
	e := &StatusError{Status: resp.StatusCode, Body: string(body)}
	var env errorEnvelope
	if json.Unmarshal(body, &env) == nil {
		e.Code = env.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = n
		}
	}
	return e
}

// VetResponse is the decoded outcome of a Client.Vet call.
type VetResponse struct {
	// Body is the renderer output — byte-identical to the stdout of the
	// corresponding `arrayflow vet` invocation.
	Body string
	// Exit is the CLI exit-contract value from X-Arrayflow-Exit (0, 1, 2).
	Exit int
}

// Analyze posts src to /v1/analyze and returns the whole-program report —
// byte-identical to `arrayflow -program` output for the same source. name
// sets the display name in diagnostics; front-end failures surface as a
// *StatusError with Status 422 whose Body holds the positioned error
// lines.
func (c *Client) Analyze(ctx context.Context, name, src string) (string, error) {
	u := c.base + "/v1/analyze"
	if name != "" {
		u += "?name=" + url.QueryEscape(name)
	}
	body, _, err := c.post(ctx, u, src)
	return body, err
}

// Vet posts src to /v1/vet and returns the rendered findings plus the exit
// value. format is text, json, or sarif ("" = text). Both exit 0 and exit
// 1 come back as a successful call (HTTP 200) — inspect Exit; exit 2
// (front-end failure) also returns a VetResponse, alongside a *StatusError
// with Status 422, so callers can read the findings either way.
func (c *Client) Vet(ctx context.Context, name, src, format string, werror bool) (*VetResponse, error) {
	q := url.Values{}
	if name != "" {
		q.Set("name", name)
	}
	if format != "" {
		q.Set("format", format)
	}
	if werror {
		q.Set("werror", "true")
	}
	u := c.base + "/v1/vet"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	exit, _ := strconv.Atoi(resp.Header.Get(exitHeader))
	vr := &VetResponse{Body: string(raw), Exit: exit}
	switch resp.StatusCode {
	case http.StatusOK:
		return vr, nil
	case http.StatusUnprocessableEntity:
		return vr, statusError(resp, raw)
	default:
		return nil, statusError(resp, raw)
	}
}

// Batch posts programs to /v1/batch and decodes the NDJSON stream into one
// BatchItem per program, in input order.
func (c *Client) Batch(ctx context.Context, req *BatchRequest) ([]BatchItem, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", strings.NewReader(string(payload)))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, statusError(resp, raw)
	}
	var items []BatchItem
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var item BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return nil, fmt.Errorf("service: bad NDJSON line: %w", err)
		}
		items = append(items, item)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return items, nil
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp, raw)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitReady polls /healthz until the service answers 200 or the timeout
// elapses — the startup handshake scripts and tests use.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not ready after %s", c.base, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// post issues a plain-text POST and returns the body for 2xx, or a
// *StatusError carrying the body otherwise. The second return is the exit
// header value.
func (c *Client) post(ctx context.Context, u, body string) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	exit, _ := strconv.Atoi(resp.Header.Get(exitHeader))
	if resp.StatusCode != http.StatusOK {
		return "", exit, statusError(resp, raw)
	}
	return string(raw), exit, nil
}
