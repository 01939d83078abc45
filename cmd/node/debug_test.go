package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/transport"
)

// TestDebugEndpoints serves debugHandler for an unstarted node and reads
// both endpoints: /status decodes as JSON carrying the node's counters, its
// view and sync state, and the transport's counters, and /debug/pprof/
// answers with pprof's index.
func TestDebugEndpoints(t *testing.T) {
	pubs := make([]*hashsig.PublicKey, 4)
	keys := make([]*hashsig.PrivateKey, 4)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("debug-endpoints/%d", i))
		pubs[i] = keys[i].Public()
	}
	hub := transport.NewHub(1, transport.TamperPolicy{})
	nd, err := node.New(node.Config{
		Consensus: consensus.Config{ID: 1, Key: keys[1], Peers: pubs, App: ledger.KVApp{}, CheckpointEvery: 4, Shards: 1},
		Transport: hub.Endpoint(1, nil),
		Clock:     node.NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(debugHandler(nd, func() uint64 { return 7 }))
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		return resp, body
	}

	resp, body := get("/status")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/status Content-Type %q", ct)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if st.TransportDropped != 7 || st.CommittedSeqs != 0 || st.Stats != (node.Stats{}) {
		t.Fatalf("/status = %+v", st)
	}
	for _, field := range []string{`"stats":{`, `"SendErrors":0`, `"View":0`, `"Syncs":0`, `"Syncing":false`, `"SyncRefused":{"State":0,"Batch":0}`, `"verifies":`} {
		if !strings.Contains(string(body), field) {
			t.Fatalf("/status lacks %s:\n%s", field, body)
		}
	}

	if _, body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/ is not pprof's index:\n%.300s", body)
	}
	if _, body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(string(body), "goroutine profile") {
		t.Fatalf("goroutine profile missing:\n%.300s", body)
	}
}
