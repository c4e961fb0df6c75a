module couchgo/bench

go 1.22

require couchgo v0.0.0

replace couchgo => ../
