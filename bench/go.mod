module pipes/bench

go 1.24

require pipes v0.0.0

require golang.org/x/tools v0.1.0 // indirect

replace pipes => ../

replace golang.org/x/tools => ../third_party/golang.org/x/tools
