package sched

// SMSReference exposes smsReference to the external test package, which
// builds its inputs with packages that import sched (cdfg, model).
var SMSReference = smsReference
