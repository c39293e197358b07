package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Per-layer server benchmarks: the daemon's two read endpoints served
// in-process (handler called through httptest, no sockets) on a chain-150
// tenant holding the rows POST /data writes at maxPerType 7 — the tenant
// shape perfbench's serve-durable workload reads from.
//
//	go test -run xxx -bench 'ServeDataGet|ServeViewsGet' -benchmem ./internal/server

const (
	benchChainN     = 150
	benchPerType    = 7
	benchDataSeed   = 3
	benchTenantName = "bench"
)

// benchTenant registers the benchmark tenant, seeds its rows and returns
// the daemon's handler.
func benchTenant(b *testing.B) http.Handler {
	b.Helper()
	h := New(Options{}).Handler()
	serve := func(method, path string, body any, want int) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				b.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
		if rec.Code != want {
			b.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
	}
	serve("POST", "/v1/tenants/"+benchTenantName,
		map[string]any{"workload": map[string]any{"kind": "chain", "prefix": "b", "n": benchChainN}}, http.StatusCreated)
	serve("POST", "/v1/tenants/"+benchTenantName+"/data",
		map[string]any{"seed": benchDataSeed, "maxPerType": benchPerType}, http.StatusOK)
	return h
}

func benchRead(b *testing.B, path string) {
	h := benchTenant(b)
	req := httptest.NewRequest("GET", path, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s: status %d", path, rec.Code)
		}
	}
}

// BenchmarkServeDataGet measures GET /v1/tenants/{t}/data.
func BenchmarkServeDataGet(b *testing.B) { benchRead(b, "/v1/tenants/"+benchTenantName+"/data") }

// BenchmarkServeViewsGet measures GET /v1/tenants/{t}/views.
func BenchmarkServeViewsGet(b *testing.B) { benchRead(b, "/v1/tenants/"+benchTenantName+"/views") }
