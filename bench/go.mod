// The benchmark is a module of its own so that the repository's build
// and tests never depend on it. Its path sits under the repository's
// module path, which is what lets it import ritw/internal/...
module ritw/bench

go 1.22

require ritw v0.0.0

replace ritw => ../
