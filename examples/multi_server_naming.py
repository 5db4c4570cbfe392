"""The naming forest (paper Figure 4): several servers, one name space view.

Three file servers each own a tree; cross-server links (the curved arrows of
Figure 4) and the per-user prefix table stitch them together.  A single Open
can walk from the workstation through the prefix server into server A,
forward to server B, and forward again to server C -- and the client never
knows.  The example prints the forwarding path (the hop spans the kernel
closed with a ``Forward``) to show it happening.

Run:  python examples/multi_server_naming.py
"""

from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.obs import Observability
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server


def main() -> None:
    obs = Observability()
    domain = Domain(seed=7, obs=obs)
    workstation = setup_workstation(domain, "mann")

    # Three storage servers, as in a departmental installation.
    servers = {}
    for name in ("alpha", "beta", "gamma"):
        handle = start_server(domain.create_host(f"vax-{name}"),
                              VFileServer(user="mann"))
        servers[name] = handle
    standard_prefixes(workstation, servers["alpha"])

    # Cross-server links: alpha:/users/mann/projects -> beta's home,
    # beta:/users/mann/archive -> gamma's home.
    servers["alpha"].server.store.link_remote(
        servers["alpha"].server.home, b"projects",
        ContextPair(servers["beta"].pid, int(WellKnownContext.HOME)))
    servers["beta"].server.store.link_remote(
        servers["beta"].server.home, b"archive",
        ContextPair(servers["gamma"].pid, int(WellKnownContext.HOME)))

    def program(session):
        # One name, three servers: [home] -> alpha, projects -> beta,
        # archive -> gamma, then the file.
        deep_name = "[home]projects/archive/ancient.txt"
        yield from files.write_file(session, deep_name, b"carved in stone")
        content = yield from files.read_file(session, deep_name)
        print(f"read through 3 servers: {content.decode()!r}")

        # The file physically lives on gamma:
        node = servers["gamma"].server.store.resolve_path(
            "users/mann/ancient.txt")
        print(f"physically on vax-gamma: users/mann/{node.name.decode()} "
              f"({node.size} bytes)")

        # Listing shows the links as typed records, like any other object.
        records = yield from session.list_directory("[home]")
        for record in records:
            print(f"  [home] entry: {type(record).__name__:<18} "
                  f"{record.name}")

    workstation.run_program(program, name="forest-walker")
    domain.run()
    domain.check_healthy()

    print("\nforwarding path of the deep open:")
    forwards = [span for span in obs.spans.spans
                if "forwarded_to" in span.attrs]
    for span in forwards[:6]:
        print(f"  {span.end * 1e3:10.3f}ms  {span.actor:<24} "
              f"Forward -> {span.attrs['forwarded_to']}")


if __name__ == "__main__":
    main()
