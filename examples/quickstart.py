"""Quickstart: the paper's running example (Sec. 2) end to end.

Builds the Fig. 1 pipeline over the Tab. 1 tweets, executes it with
provenance capture, poses the Fig. 4 provenance question (why does user
``lp`` have a duplicate ``Hello World`` tweet?), and prints the backtraced
Fig. 2 trees distinguishing contributing from influencing attributes.

Run with::

    python examples/quickstart.py
"""

from repro import PebbleSession
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)


def main() -> None:
    pebble = PebbleSession()

    # 1. Build the pipeline of Fig. 1: authored tweets (retweet_count == 0)
    #    unified with mentioned-user tweets, grouped per user.
    pipeline = build_running_example(pebble.session, list(RUNNING_EXAMPLE_TWEETS))
    print("Logical plan:")
    print(pipeline.explain())

    # 2. Execute with structural provenance capture (the Pebble Core path).
    captured = pebble.run(pipeline)
    print("\nResult (Tab. 2):")
    for item in captured.items():
        print(" ", item)
    print("\nCaptured provenance:", captured.size_report())

    # 3. Ask the provenance question of Fig. 4: user 'lp' with the text
    #    'Hello World' occurring exactly twice in the nested tweets.
    print("\nProvenance question:", RUNNING_EXAMPLE_PATTERN)
    provenance = captured.backtrace(RUNNING_EXAMPLE_PATTERN)

    # 4. Inspect the backtraced trees (Fig. 2): the two 'Hello World' input
    #    tweets contribute text and user.id_str; retweet_count and user.name
    #    merely influenced the result (filter and grouping access).
    print("\nBacktraced provenance (Fig. 2):")
    print(provenance.render())

    entry = provenance.sources[0].entry(2)
    print("\ncontributing:", entry.contributing_paths())
    print("influencing: ", entry.influencing_paths())


if __name__ == "__main__":
    main()
