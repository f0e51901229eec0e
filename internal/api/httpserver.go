package api

import (
	"net/http"
	"time"
)

// NewHTTPServer builds the hardened http.Server for addr and handler.
// Without its bounds a slowloris client trickling header bytes, or an
// ingest stream that stalls mid-body, pins a goroutine and a connection
// forever.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:    addr,
		Handler: handler,
		// The slowloris kill switch: one request's headers.
		ReadHeaderTimeout: 10 * time.Second,
		// The whole request, body included: generous, so a
		// multi-gigabyte ingest replay over a slow link still fits, while
		// a stalled stream cannot hold its connection forever.
		ReadTimeout: 15 * time.Minute,
		// WriteTimeout stays off: /api/stream is a long-lived
		// Server-Sent-Events response that a write deadline would sever.
		IdleTimeout: 2 * time.Minute,
	}
}
