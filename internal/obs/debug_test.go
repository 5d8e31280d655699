package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"odr/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServeDebugEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("frames_rendered").Add(42)
	d, err := obs.ServeDebugRegistry("127.0.0.1:0", reg, func() any { return map[string]any{"sessions": 3} })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	code, body := get(t, base+"/debug/odr")
	if code != http.StatusOK {
		t.Fatalf("/debug/odr status = %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/odr is not JSON: %v\n%s", err, body)
	}
	if snap["sessions"] != float64(3) || len(snap) != 1 {
		t.Fatalf("/debug/odr snapshot = %v, want only the caller's state", snap)
	}
	code, body = get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "\nframes_rendered 42\n") {
		t.Fatalf("/metrics status = %d, body:\n%s", code, body)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine status = %d", code)
	}
	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
}

func TestServeDebugNilSnapshot(t *testing.T) {
	d, err := obs.ServeDebugRegistry("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	code, body := get(t, "http://"+d.Addr()+"/debug/odr")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil || len(v) != 0 {
		t.Fatalf("body = %s", body)
	}
	if code, _ := get(t, "http://"+d.Addr()+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without a registry: status = %d, want 404", code)
	}
}
