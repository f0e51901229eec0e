module vap/bench

go 1.24

require vap v0.0.0

replace vap => ../
