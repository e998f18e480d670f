"""Fuzz targets: Python re-implementations of the evaluation's servers.

Each module implements one target of the paper's evaluation — the 13
ProFuzzBench services (Tables 1-3) plus the case studies (MySQL
client, Lighttpd, Firefox IPC) — as a guest
:class:`~repro.guestos.process.Program` with a genuine protocol
parser, a stateful session machine and the planted memory-safety bugs
the crash experiments rely on.

``PROFILES`` is the registry the benchmark harness iterates.

Every submodule is a traced target: the instrumenting finder goes in
before the first of them is imported, so each loads with block
coverage sites (:mod:`repro.coverage.instrument`).
"""

from repro.coverage.instrument import install

install()

from repro.targets.base import TargetProfile, MessageServer, ConnCtx

from repro.targets import (bftpd, dcmtk, dnsmasq, exim, firefox_ipc,
                           forked_daapd, kamailio, lightftp, lighttpd,
                           live555, mysql_client, openssh, openssl, proftpd,
                           pure_ftpd, tinydtls)

#: name -> TargetProfile for every implemented target.
PROFILES = {
    module.PROFILE.name: module.PROFILE
    for module in (bftpd, dcmtk, dnsmasq, exim, firefox_ipc, forked_daapd,
                   kamailio, lightftp, lighttpd, live555, mysql_client,
                   openssh, openssl, proftpd, pure_ftpd, tinydtls)
}

#: The 13 ProFuzzBench targets, in the tables' order.
PROFUZZBENCH = ["bftpd", "dcmtk", "dnsmasq", "exim", "forked-daapd",
                "kamailio", "lightftp", "live555", "openssh", "openssl",
                "proftpd", "pure-ftpd", "tinydtls"]

__all__ = ["TargetProfile", "MessageServer", "ConnCtx", "PROFILES",
           "PROFUZZBENCH"]
