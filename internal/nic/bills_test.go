package nic_test

// legBills holds TestLegBills' bills, as the per-substrate NIC
// implementations produced them: the failed or served leg, then the pinned
// hit after the fault is healed.
var legBills = map[string][]string{
	"pony/hit/at 0": {
		"err=<nil> ns=5890 bytes=1088 spans=[{9 0 0 440} {10 1024 2716 482} {11 0 5628 262}] cpu=pony:1184/2, hw=0/0",
		"err=<nil> ns=5555 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5293 262}] cpu=pony:2368/4, hw=0/0"},
	"pony/hit/at 990000": {
		"err=<nil> ns=5890 bytes=1088 spans=[{9 0 0 440} {10 1024 2716 482} {11 0 5628 262}] cpu=pony:1184/2, hw=0/0",
		"err=<nil> ns=5555 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5293 262}] cpu=pony:2368/4, hw=0/0"},
	"1rma/hit/at 0": {
		"err=<nil> ns=31249 bytes=1088 spans=[{14 0 0 25000} {9 0 25000 2200} {13 1024 27200 4049}] cpu=client-1rma:2200/1, hw=1/4049",
		"err=<nil> ns=5981 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 3781}] cpu=client-1rma:4400/2, hw=2/4049"},
	"1rma/hit/at 990000": {
		"err=<nil> ns=31249 bytes=1088 spans=[{14 0 0 25000} {9 0 25000 2200} {13 1024 27200 4049}] cpu=client-1rma:2200/1, hw=1/4049",
		"err=<nil> ns=5981 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 3781}] cpu=client-1rma:4400/2, hw=2/4049"},
	"pony/damaged extent/at 0": {
		"err=rmem: access out of bounds ns=45097162040 bytes=64 spans=[{9 0 0 440} {10 0 2716 45097157048}] cpu=pony:45097157488/2, hw=0/0",
		"err=<nil> ns=5555 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5293 262}] cpu=pony:45097158672/4, hw=0/0"},
	"pony/damaged extent/at 990000": {
		"err=rmem: access out of bounds ns=45097162040 bytes=64 spans=[{9 0 0 440} {10 0 2716 45097157048}] cpu=pony:45097157488/2, hw=0/0",
		"err=<nil> ns=5555 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5293 262}] cpu=pony:45097158672/4, hw=0/0"},
	"1rma/damaged extent/at 0": {
		"err=rmem: access out of bounds ns=37580994930 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200} {13 0 27200 37580967730}] cpu=client-1rma:2200/1, hw=1/37580967730",
		"err=<nil> ns=5981 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 3781}] cpu=client-1rma:4400/2, hw=2/37580967730"},
	"1rma/damaged extent/at 990000": {
		"err=rmem: access out of bounds ns=37580994930 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200} {13 0 27200 37580967730}] cpu=client-1rma:2200/1, hw=1/37580967730",
		"err=<nil> ns=5981 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 3781}] cpu=client-1rma:4400/2, hw=2/37580967730"},
	"pony/revoked window/at 0": {
		"err=rmem: window revoked: id 1 ns=5434 bytes=64 spans=[{9 0 0 440} {10 64 2716 442}] cpu=pony:882/2, hw=0/0",
		"err=rmem: window revoked: id 1 ns=5139 bytes=64 spans=[{9 0 0 440} {10 1024 2539 482}] cpu=pony:1804/4, hw=0/0"},
	"pony/revoked window/at 990000": {
		"err=rmem: window revoked: id 1 ns=5434 bytes=64 spans=[{9 0 0 440} {10 64 2716 442}] cpu=pony:882/2, hw=0/0",
		"err=rmem: window revoked: id 1 ns=5139 bytes=64 spans=[{9 0 0 440} {10 1024 2539 482}] cpu=pony:1804/4, hw=0/0"},
	"1rma/revoked window/at 0": {
		"err=rmem: window revoked: id 1 ns=31092 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200} {13 64 27200 3892}] cpu=client-1rma:2200/1, hw=1/3892",
		"err=rmem: window revoked: id 1 ns=5858 bytes=0 spans=[{9 0 0 2200} {13 1024 2200 3658}] cpu=client-1rma:4400/2, hw=2/3892"},
	"1rma/revoked window/at 990000": {
		"err=rmem: window revoked: id 1 ns=31092 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200} {13 64 27200 3892}] cpu=client-1rma:2200/1, hw=1/3892",
		"err=rmem: window revoked: id 1 ns=5858 bytes=0 spans=[{9 0 0 2200} {13 1024 2200 3658}] cpu=client-1rma:4400/2, hw=2/3892"},
	"pony/target down/at 0": {
		"err=nic: target unreachable ns=2716 bytes=64 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
		"err=<nil> ns=5713 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5451 262}] cpu=pony:1624/3, hw=0/0"},
	"pony/target down/at 990000": {
		"err=nic: target unreachable ns=2716 bytes=64 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
		"err=<nil> ns=5713 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5451 262}] cpu=pony:1624/3, hw=0/0"},
	"1rma/target down/at 0": {
		"err=nic: target unreachable ns=27200 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200}] cpu=client-1rma:2200/1, hw=0/0",
		"err=<nil> ns=6249 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 4049}] cpu=client-1rma:4400/2, hw=1/4049"},
	"1rma/target down/at 990000": {
		"err=nic: target unreachable ns=27200 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200}] cpu=client-1rma:2200/1, hw=0/0",
		"err=<nil> ns=6249 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 4049}] cpu=client-1rma:4400/2, hw=1/4049"},
	"pony/client-only target/at 0": {
		"err=nic: target unreachable ns=2716 bytes=64 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
		"err=nic: target unreachable ns=2539 bytes=64 spans=[{9 0 0 440}] cpu=pony:880/2, hw=0/0"},
	"pony/client-only target/at 990000": {
		"err=nic: target unreachable ns=2716 bytes=64 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
		"err=nic: target unreachable ns=2539 bytes=64 spans=[{9 0 0 440}] cpu=pony:880/2, hw=0/0"},
	"1rma/client-only target/at 0": {
		"err=nic: target unreachable ns=27200 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200}] cpu=client-1rma:2200/1, hw=0/0",
		"err=nic: target unreachable ns=2200 bytes=0 spans=[{9 0 0 2200}] cpu=client-1rma:4400/2, hw=0/0"},
	"1rma/client-only target/at 990000": {
		"err=nic: target unreachable ns=27200 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200}] cpu=client-1rma:2200/1, hw=0/0",
		"err=nic: target unreachable ns=2200 bytes=0 spans=[{9 0 0 2200}] cpu=client-1rma:4400/2, hw=0/0"},
	"pony/isolated target/at 0": {
		"err=nic: target unreachable ns=2716 bytes=64 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
		"err=<nil> ns=5713 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5451 262}] cpu=pony:1624/3, hw=0/0"},
	"pony/isolated target/at 990000": {
		"err=nic: target unreachable ns=2716 bytes=64 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
		"err=<nil> ns=5713 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 482} {11 0 5451 262}] cpu=pony:1624/3, hw=0/0"},
	"1rma/isolated target/at 0": {
		"err=nic: target unreachable ns=27200 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200}] cpu=client-1rma:2200/1, hw=0/0",
		"err=<nil> ns=6249 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 4049}] cpu=client-1rma:4400/2, hw=1/4049"},
	"1rma/isolated target/at 990000": {
		"err=nic: target unreachable ns=27200 bytes=0 spans=[{14 0 0 25000} {9 0 25000 2200}] cpu=client-1rma:2200/1, hw=0/0",
		"err=<nil> ns=6249 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 4049}] cpu=client-1rma:4400/2, hw=1/4049"},
	"pony/initiator down/at 0": {
		"err=nic: target unreachable ns=0 bytes=0 spans=[] cpu= hw=0/0",
		"err=<nil> ns=5890 bytes=1088 spans=[{9 0 0 440} {10 1024 2716 482} {11 0 5628 262}] cpu=pony:1184/2, hw=0/0"},
	"pony/initiator down/at 990000": {
		"err=nic: target unreachable ns=0 bytes=0 spans=[] cpu= hw=0/0",
		"err=<nil> ns=5890 bytes=1088 spans=[{9 0 0 440} {10 1024 2716 482} {11 0 5628 262}] cpu=pony:1184/2, hw=0/0"},
	"1rma/initiator down/at 0": {
		"err=nic: target unreachable ns=0 bytes=0 spans=[] cpu= hw=0/0",
		"err=<nil> ns=31249 bytes=1088 spans=[{14 0 0 25000} {9 0 25000 2200} {13 1024 27200 4049}] cpu=client-1rma:2200/1, hw=1/4049"},
	"1rma/initiator down/at 990000": {
		"err=nic: target unreachable ns=0 bytes=0 spans=[] cpu= hw=0/0",
		"err=<nil> ns=31249 bytes=1088 spans=[{14 0 0 25000} {9 0 25000 2200} {13 1024 27200 4049}] cpu=client-1rma:2200/1, hw=1/4049"},
	"pony/brownout/at 0": {
		"err=<nil> ns=13633 bytes=4160 spans=[{9 0 0 440} {10 4096 2716 7608} {11 0 13245 388}] cpu=pony:1436/2, hw=0/0",
		"err=<nil> ns=12555 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 7482} {11 0 12293 262}] cpu=pony:2620/4, hw=0/0"},
	"pony/brownout/at 990000": {
		"err=<nil> ns=13633 bytes=4160 spans=[{9 0 0 440} {10 4096 2716 7608} {11 0 13245 388}] cpu=pony:1436/2, hw=0/0",
		"err=<nil> ns=12555 bytes=1088 spans=[{9 0 0 440} {10 1024 2539 7482} {11 0 12293 262}] cpu=pony:2620/4, hw=0/0"},
	"1rma/brownout/at 0": {
		"err=<nil> ns=38746 bytes=4160 spans=[{14 0 0 25000} {9 0 25000 2200} {13 4096 27200 11546}] cpu=client-1rma:2200/1, hw=1/11546",
		"err=<nil> ns=12981 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 10781}] cpu=client-1rma:4400/2, hw=2/11546"},
	"1rma/brownout/at 990000": {
		"err=<nil> ns=38746 bytes=4160 spans=[{14 0 0 25000} {9 0 25000 2200} {13 4096 27200 11546}] cpu=client-1rma:2200/1, hw=1/11546",
		"err=<nil> ns=12981 bytes=1088 spans=[{9 0 0 2200} {13 1024 2200 10781}] cpu=client-1rma:4400/2, hw=2/11546"},
}

// msgBills holds TestMessageBills' bills, as Pony's former Message produced
// them.
var msgBills = map[string]string{
	"ok/at 0":                   "resp=305 err=<nil> ns=7273 bytes=733 spans=[{9 0 0 440} {12 300 2764 1952} {11 0 7041 232}] cpu=pony:2624/2, hw=0/0",
	"ok/at 990000":              "resp=305 err=<nil> ns=7273 bytes=733 spans=[{9 0 0 440} {12 300 2764 1952} {11 0 7041 232}] cpu=pony:2624/2, hw=0/0",
	"handler error/at 0":        "resp=0 err=boom ns=6992 bytes=364 spans=[{9 0 0 440} {12 300 2764 1952}] cpu=pony:2392/2, hw=0/0",
	"handler error/at 990000":   "resp=0 err=boom ns=6992 bytes=364 spans=[{9 0 0 440} {12 300 2764 1952}] cpu=pony:2392/2, hw=0/0",
	"no handler/at 0":           "resp=0 err=nic: target unreachable ns=2764 bytes=364 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
	"no handler/at 990000":      "resp=0 err=nic: target unreachable ns=2764 bytes=364 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
	"target down/at 0":          "resp=0 err=nic: target unreachable ns=2764 bytes=364 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
	"target down/at 990000":     "resp=0 err=nic: target unreachable ns=2764 bytes=364 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
	"isolated target/at 0":      "resp=0 err=nic: target unreachable ns=2764 bytes=364 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
	"isolated target/at 990000": "resp=0 err=nic: target unreachable ns=2764 bytes=364 spans=[{9 0 0 440}] cpu=pony:440/1, hw=0/0",
}
