module cliquemap/bench

go 1.22

require cliquemap v0.0.0

replace cliquemap => ../
