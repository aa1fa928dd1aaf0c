package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"serretime"
)

// maxConns bounds the client's connections to the daemon (the machine's
// CPU count the benchmark is sized for).
const maxConns = 2

// client speaks the daemon's HTTP API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx answer; any other
// status is an error carrying the daemon's message.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, r)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID          string  `json:"id"`
	Status      string  `json:"status"`
	DeltaSER    float64 `json:"delta_ser"`
	Error       string  `json:"error"`
	Disposition string  `json:"disposition"`
}

// job is one finished batch request as the client saw it.
type job struct {
	view   jobView
	polls  int
	result [32]byte
}

// retime submits a netlist with default options, polls the job every
// poll until it is done, and downloads the result.
func (c *client) retime(name string, netlist []byte, poll time.Duration) (job, error) {
	var j job
	b, err := c.do("POST", "/v1/retime?name="+url.QueryEscape(name), netlist)
	if err != nil {
		return j, err
	}
	if err := json.Unmarshal(b, &j.view); err != nil {
		return j, err
	}
	disp := j.view.Disposition
	for j.view.Status == "queued" || j.view.Status == "running" {
		time.Sleep(poll)
		j.polls++
		if b, err = c.do("GET", "/v1/jobs/"+j.view.ID, nil); err != nil {
			return j, err
		}
		if err := json.Unmarshal(b, &j.view); err != nil {
			return j, err
		}
	}
	j.view.Disposition = disp
	if j.view.Status != "done" {
		return j, fmt.Errorf("job %.12s %s: %s", j.view.ID, j.view.Status, j.view.Error)
	}
	res, err := c.do("GET", "/v1/jobs/"+j.view.ID+"/result", nil)
	if err != nil {
		return j, err
	}
	j.result = sha256.Sum256(res)
	return j, nil
}

// jobTrace returns the queue wait and solve time of a finished job from
// its span tree.
func (c *client) jobTrace(id string) (queue, solve time.Duration, err error) {
	b, err := c.do("GET", "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		Root struct {
			Children []struct {
				Name  string `json:"name"`
				DurNS int64  `json:"dur_ns"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, 0, err
	}
	for _, s := range doc.Root.Children {
		switch s.Name {
		case "queue-wait":
			queue = time.Duration(s.DurNS)
		case "solve":
			solve = time.Duration(s.DurNS)
		}
	}
	if solve == 0 {
		return 0, 0, fmt.Errorf("job %.12s: trace has no solve span", id)
	}
	return queue, solve, nil
}

// openSession opens a warm ECO session on a netlist with default options.
func (c *client) openSession(name string, netlist []byte) (string, error) {
	b, err := c.do("POST", "/v1/sessions?name="+url.QueryEscape(name), netlist)
	if err != nil {
		return "", err
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// deltaReply is the part of a session delta answer the benchmark reads.
type deltaReply struct {
	Warm      bool    `json:"warm"`
	DeltaSER  float64 `json:"delta_ser"`
	SolveMS   float64 `json:"solve_ms"`
	ResultSHA string  `json:"result_sha256"`
	result    [32]byte
}

// delta applies ops to a session and downloads the new result, checking
// it against the digest the delta answer announced.
func (c *client) delta(id string, ops []serretime.DeltaOp) (deltaReply, error) {
	var r deltaReply
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return r, err
	}
	b, err := c.do("POST", "/v1/sessions/"+id+"/delta", body)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, err
	}
	res, err := c.do("GET", "/v1/sessions/"+id+"/result", nil)
	if err != nil {
		return r, err
	}
	r.result = sha256.Sum256(res)
	if got := fmt.Sprintf("%x", r.result); got != r.ResultSHA {
		return r, fmt.Errorf("session %s: result digest %s, delta answer announced %s", id, got, r.ResultSHA)
	}
	return r, nil
}
