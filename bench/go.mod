module dataflasks/bench

go 1.22

require dataflasks v0.0.0

replace dataflasks => ../
