// The benchmark is a module of its own so the repository's
// `go build ./... && go test ./...` neither builds nor runs it. The import
// path stays under iaccf/, which is what lets it import iaccf/internal/...
module iaccf/bench

go 1.24

require iaccf v0.0.0

replace iaccf => ../
