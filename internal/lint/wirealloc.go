package lint

// wireallocPackage scopes the zero-alloc wire contract to the codec.
var wireallocPackage = "internal/wire"

// wireallocFrameFuncs are the free functions of the framed staging path:
// EncodeFrame for raw payloads, the BeginFrame/EndFrame pair and their
// AppendFrame composition for single-pass message staging. The transport
// calls these for every frame it writes, so they and everything they reach
// are benchmarked at 0 allocs/op.
var wireallocFrameFuncs = map[string]bool{
	"EncodeFrame": true,
	"BeginFrame":  true,
	"EndFrame":    true,
	"AppendFrame": true,
}

// wireallocAnalyzer pins the zero-alloc wire path win against
// regression, reusing the hotalloc machinery under a different scope:
// everything reachable from the hot encode roots — any AppendTo method
// (the Appender contract every hot message implements), the frame
// staging functions, and the read side's FrameReader.Next — must not
// contain allocating constructs. Append targets rooted at a parameter or
// the receiver are fine: AppendTo's whole design is growing the
// caller-owned buffer in place.
//
// The one deliberate allocation — FrameReader's pool-miss growth to the
// connection's high-water frame size — carries a reasoned
// //lint:allow wirealloc directive, so the budget stays auditable.
// AppendTo is every message's only marshal, so the root set is the whole
// encode side; functions that allocate a buffer of their own (NewWriter,
// WriteFrame, ReadFrame) are not roots and stay out of scope unless a root
// starts calling them, which is the regression this analyzer exists to
// catch.
var wireallocAnalyzer = &Analyzer{
	Name: "wirealloc",
	Doc:  "code reachable from the wire AppendTo/frame staging roots and FrameReader.Next must not allocate",
	RunModule: func(m *Module, report ReportFunc) {
		runHotPath(m, hotPathScope{
			analyzer: "wirealloc",
			pkg:      wireallocPackage,
			isRoot: func(n *FuncNode) bool {
				if n.Obj.Name() == "AppendTo" && n.RecvTypeName() != "" {
					return true
				}
				switch n.RecvTypeName() {
				case "":
					return wireallocFrameFuncs[n.Obj.Name()]
				case "FrameReader":
					return n.Obj.Name() == "Next"
				}
				return false
			},
			contract: "the wire encode/decode hot path must stay allocation-free — append into the caller-owned buffer",
		}, report)
	},
}
