module preemptsched/bench

go 1.22

require preemptsched v0.0.0

replace preemptsched => ../
