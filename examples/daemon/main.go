// Daemon: run the streamhistd HTTP service in-process, feed it a stream
// over HTTP, and query the live summary — the deployable form of the
// paper's operator scenario, end to end.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"streamhist/internal/datagen"
	"streamhist/internal/server"
)

func main() {
	srv, err := server.New(1024, 12, 0.1, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Print(err)
		}
	}()
	defer func() { _ = httpSrv.Close() }()
	base := "http://" + ln.Addr().String()
	fmt.Println("streamhistd listening on", base)

	// Feed 5000 utilization points in batches of 500, as a collector
	// would, into the reserved "default" stream every server has.
	prefix := "/v1/streams/" + server.DefaultStream
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 77, Quantize: true})
	for batch := 0; batch < 10; batch++ {
		var sb strings.Builder
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&sb, "%g\n", g.Next())
		}
		body := okBody(http.Post(base+prefix+"/ingest", "text/plain", strings.NewReader(sb.String())))
		if batch == 9 {
			fmt.Printf("last ingest response: %s", body)
		}
	}

	for _, op := range []string{
		"/stats",
		"/query?lo=100&hi=900",
		"/quantile?phi=0.95",
		"/selectivity?lo=200&hi=400",
		"/histogram",
	} {
		path := prefix + op
		out := string(okBody(http.Get(base + path)))
		if len(out) > 300 {
			out = out[:300] + "...\n"
		}
		fmt.Printf("\nGET %s\n%s", path, out)
	}
}

// okBody reads a response body, exiting unless the request got a 200.
func okBody(resp *http.Response, err error) []byte {
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, body)
	}
	return body
}
