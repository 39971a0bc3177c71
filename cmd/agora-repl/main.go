// Command agora-repl is an interactive shell over a simulated Open Agora:
// it seeds a generated marketplace and lets you shop for information by
// hand — AQL queries through the full negotiate/settle pipeline, browsing,
// standing subscriptions, feedback that teaches your profile, and a view of
// the reputation your session accumulates.
//
// Usage:
//
//	agora-repl [-seed N] [-docs N] [-sources N]
//
// Commands inside the shell: help, ask, browse, sources, watch, unwatch,
// inbox, trust, profile, context, feedback, topics, quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctxmodel"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 7, "world seed")
	nDocs := flag.Int("docs", 1500, "corpus size")
	nSources := flag.Int("sources", 5, "provider count")
	flag.Parse()

	reg := telemetry.NewRegistry()
	a := core.New(core.Config{Seed: *seed, ConceptDim: 32, Telemetry: reg})
	g := workload.NewGenerator(*seed, 32, 8)
	docs := g.GenCorpus(*nDocs, 1.2, int64(30*24*time.Hour))
	for i, list := range g.AssignToSources(docs, *nSources, 0.7) {
		econ := core.DefaultEconomics()
		beh := core.DefaultBehavior()
		if i%3 == 2 {
			econ.CostBase *= 0.6
			beh.Reliability = 0.55
		}
		node, err := a.AddNode(workload.SourceName(i), econ, beh)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, d := range list {
			if err := node.Ingest(d.Doc); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	p := profile.New("you", 32)
	sess := a.NewSession(p)
	sess.CompleteQueries = true

	var topics []string
	for _, t := range g.Topics {
		topics = append(topics, t.Name)
	}
	fmt.Printf("Open Agora REPL — %d documents over %d sources. Topics: %s\n",
		*nDocs, *nSources, strings.Join(topics, ", "))
	fmt.Println(`Type "help" for commands.`)

	subs := map[string]string{} // name -> sub id
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("agora> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			printHelp()
		case "topics":
			fmt.Println(strings.Join(topics, ", "))
		case `\stats`, "stats":
			snap := reg.Snapshot()
			if len(snap.Counters) == 0 && len(snap.Histograms) == 0 {
				fmt.Println("  no telemetry yet — ask something first")
				continue
			}
			snap.RenderText(os.Stdout)
		case "sources":
			for _, name := range a.Nodes() {
				n := a.Node(name)
				fmt.Printf("  %-10s %5d docs, premium %.2f, trust (yours) %.2f\n",
					name, n.TotalDocs(), n.Econ.Premium, sess.Ledger.Trust(name))
			}
		case "ask":
			if rest == "" {
				fmt.Println(`usage: ask FIND documents WHERE text ~ "gold ring" TOP 5`)
				continue
			}
			if !strings.HasPrefix(strings.ToUpper(rest), "FIND") {
				rest = fmt.Sprintf(`FIND documents WHERE text ~ "%s" TOP 8`, rest)
			}
			ans, err := sess.Ask(rest, nil)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for i, r := range ans.Results {
				fmt.Printf("  %d. [%.3f] %-10s %s %s\n", i+1, r.Score, r.Source, r.Doc.ID, r.Doc.Title)
			}
			fmt.Printf("  — %d contracts (%d negotiated, %d rounds), paid %.2f, latency %s\n",
				len(ans.Contracts), ans.Negotiated, ans.Rounds, ans.Delivered.Price, ans.Delivered.Latency)
		case "browse":
			if rest == "" {
				rest = workload.SourceName(0)
			}
			ds, err := sess.Browse(rest, 6)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, d := range ds {
				fmt.Printf("  · %s %s\n", d.ID, d.Title)
			}
		case "watch":
			if rest == "" {
				fmt.Println("usage: watch <terms...>")
				continue
			}
			id, err := sess.Subscribe(strings.Fields(rest), nil, 0)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			subs[rest] = id
			fmt.Printf("  watching %q (new ingests will land in your inbox)\n", rest)
		case "unwatch":
			if id, ok := subs[rest]; ok {
				_ = sess.Unsubscribe(id)
				delete(subs, rest)
				fmt.Println("  stopped")
			} else {
				fmt.Println("  no such watch; active:", keys(subs))
			}
		case "inbox":
			items := sess.Inbox.Drain()
			if len(items) == 0 {
				fmt.Println("  (empty)")
			}
			for _, it := range items {
				fmt.Printf("  [%s] %s: %.60s\n", it.Source, it.ID, it.Text)
			}
		case "trust":
			tbl := metrics.NewTable("", "source", "trust", "contracts seen")
			for _, prov := range sess.Ledger.Ranked() {
				tbl.AddRow(prov, sess.Ledger.Trust(prov), len(sess.Ledger.History(prov)))
			}
			if tbl.Rows() == 0 {
				fmt.Println("  no contracts settled yet — ask something first")
				continue
			}
			fmt.Print(tbl.String())
		case "profile":
			fmt.Printf("  %s\n  top terms: %v\n  detector: %q mode\n",
				sess.Profile, sess.Profile.TopTerms(6), sess.Detector.Task())
		case "context":
			parts := strings.Fields(rest)
			if len(parts) < 1 {
				fmt.Println("usage: context <location> [task]  (e.g. context travel:paris explore)")
				continue
			}
			sess.Context = ctxmodel.Context{Hour: -1, Location: parts[0]}
			if len(parts) > 1 {
				sess.Context.Task = parts[1]
			}
			fmt.Printf("  context set: %+v\n", sess.Context)
		case "feedback":
			parts := strings.Fields(rest)
			if len(parts) != 2 || (parts[1] != "save" && parts[1] != "skip") {
				fmt.Println("usage: feedback <docID> save|skip")
				continue
			}
			var found bool
			for _, name := range a.Nodes() {
				if d, err := a.Node(name).Store.Get(parts[0]); err == nil {
					ev := profile.Event{Concept: d.Concept, Terms: d.Tokens(), Source: name, Satisfied: parts[1] == "save"}
					if parts[1] == "save" {
						ev.Type = profile.EventSave
					} else {
						ev.Type = profile.EventSkip
					}
					sess.Feedback([]profile.Event{ev})
					found = true
					fmt.Println("  noted — your profile learned")
					break
				}
			}
			if !found {
				fmt.Println("  unknown document id")
			}
		default:
			fmt.Printf("  unknown command %q — try help\n", cmd)
		}
	}
}

func printHelp() {
	fmt.Print(`  ask <aql or free text>   run a query through the full market pipeline
  browse [source]          newest holdings at a source
  sources                  provider directory with your trust in each
  watch <terms...>         standing subscription; matching ingests hit inbox
  unwatch <terms...>       cancel a watch
  inbox                    drain your feed inbox
  trust                    reputation your session has learned
  profile                  your learned profile
  context <loc> [task]     set your context (activates profile variants)
  feedback <docID> save|skip  teach your profile
  topics                   the concept space's topic names
  \stats                   runtime telemetry: counters, latency histograms, traces
  quit                     leave
`)
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
