package main

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"iaccf/internal/hashsig"
	"iaccf/internal/node"
)

// status is what /status reports: the node's run-loop counters and its
// view and sync state (Stats), its commit watermark, the frames its
// transport dropped and the process's signature bill.
type status struct {
	CommittedSeqs    uint64     `json:"committed_seqs"`
	CommittedEntries uint64     `json:"committed_entries"`
	Stats            node.Stats `json:"stats"`
	TransportDropped uint64     `json:"transport_dropped"`
	Signs            uint64     `json:"signs"`
	Verifies         uint64     `json:"verifies"`
}

// debugHandler serves -debug: net/http/pprof under /debug/pprof/ and the
// node's counters as JSON at /status. dropped reads the transport's drop
// count.
func debugHandler(nd *node.Node, dropped func() uint64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		st := status{
			CommittedSeqs:    nd.CommittedSeqs(),
			CommittedEntries: nd.CommittedEntries(),
			Stats:            nd.Stats(),
			TransportDropped: dropped(),
		}
		st.Signs, st.Verifies = hashsig.Counts()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	return mux
}
