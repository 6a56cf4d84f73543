package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"dataflasks/internal/obs"
)

// TestFlasksdObsSmoke builds the real flasksd binary, boots it with
// -http-addr on a free port, and exercises the observability plane end
// to end: /metrics must serve a well-formed exposition and /readyz must
// reach 200 within the deadline. It fails on malformed exposition or a
// node that never reports ready. Slow path — skipped under -short (CI
// runs it as a dedicated non-short step).
func TestFlasksdObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon; skipped in -short")
	}

	bin := filepath.Join(t.TempDir(), "flasksd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build flasksd: %v\n%s", err, out)
	}

	daemon := exec.Command(bin,
		"-id", "1", "-bind", "127.0.0.1:0",
		"-engine", "memory", "-data", t.TempDir(), // a data directory the memory engine leaves alone
		"-slices", "1", "-slicer", "static", "-system-size", "1",
		"-period", "50ms", "-status", "0",
		"-http-addr", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatalf("start flasksd: %v", err)
	}
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	addrCh := make(chan string, 1)
	go func() {
		re := regexp.MustCompile(`observability plane listening on (\S+)`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logMu.Lock()
			logBuf.WriteString(sc.Text())
			logBuf.WriteByte('\n')
			logMu.Unlock()
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	defer func() {
		_ = daemon.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { _ = daemon.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = daemon.Process.Kill()
			<-done
		}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		logMu.Lock()
		defer logMu.Unlock()
		t.Fatalf("flasksd never announced the observability plane; log:\n%s", logBuf.String())
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	// A singleton static-slicer node must become ready quickly; a node
	// that never flips is a deployment-breaking regression.
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, _ := get("/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d after 20s — node never became ready", code)
		}
		time.Sleep(50 * time.Millisecond)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("live daemon serves malformed exposition: %v\n%s", err, body)
	}
	for _, want := range []string{"flasks_ready", "flasks_stored_objects", "flasks_tick_duration_seconds"} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from the daemon scrape", want)
		}
	}
	if f := fams["flasks_ready"]; len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Errorf("flasks_ready should report 1 on a ready node: %+v", f.Samples)
	}

	if code, body := get("/trace"); code != http.StatusOK || !bytes.Contains(body, []byte(`"events"`)) {
		t.Errorf("/trace = %d %s", code, body)
	}
}
