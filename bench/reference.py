"""Fixed reference program that measures how fast the host runs Python right now.

The benchmark runs it in a fresh interpreter once per round, the same way
it runs each ``numtext`` command, and scales its timings by
``REFERENCE_NOMINAL_S / median(reference wall time)``. On a shared host
the speed of the machine drifts by a quarter or more over minutes; the
program and this reference drift together, so the scaled times stay
steady while still moving with every change to the program. The work
mixes what ``numtext`` spends its time on (JSON, str, regex, Decimal,
hashing) and imports nothing from it, so a change to the program never
changes the reference.
"""

import hashlib
import json
import re
from decimal import Decimal

NUMBER = re.compile(r"\d+(?:\.\d+)*")


def main(iterations: int = 30000) -> int:
    seen = set()
    for i in range(iterations):
        record = {
            "input": f"calculate: {i} + {i * 7 % 1000}.5 - {i % 97}",
            "target": str(Decimal(i) / 8 + Decimal("0.25")),
        }
        text = json.dumps(record)
        back = json.loads(text)
        tokens = [t for word in back["input"].split() for t in NUMBER.findall(word) or [word]]
        seen.add(hashlib.sha256(text.encode()).hexdigest()[: len(tokens)])
    return len(seen)


if __name__ == "__main__":
    main()
