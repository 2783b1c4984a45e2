"""Validated messages as a table, the form in which validate hands them to voyages.

`Validated` is the positions table (`codec.Positions`) with the four fields
validate gives each row, so its line writer and checked reader
(`table.Table`) write and read validated.jsonl with the position's keys
among its own. ValidatedMessage is the row type: indexing or iterating the
table builds them.
"""

from dataclasses import dataclass

from .codec import STATUS_KINDS, PositionReport, Positions
from .table import BOOLEAN, INTEGER, TEXT, Field

# The methods validate corrects statuses by (validate.ValidationConfig.method), here where the command line reads
# them without importing validate.
METHODS = ("geofence", "kinematic", "knn", "ensemble")


@dataclass(slots=True)
class ValidatedMessage:
    """A position report plus the corrected status and its provenance.

    method names the classifier whose vote produced the candidate status for
    this message; corrected_navstat is the value after debouncing, so a
    suppressed single-message flip keeps the surrounding status.
    """

    report: PositionReport
    corrected_navstat: int
    method: str
    agreed_with_reported: bool
    gap_flag: bool


class Validated(Positions, doc_type="validated"):
    """Validated messages as columns: the position columns, and for each row the other fields of its
    ValidatedMessage.

    corrected_navstat is int64, method an object array of vote labels, and
    agreed_with_reported and gap_flag are bool.
    """

    corrected_navstat = Field(INTEGER.one_of(STATUS_KINDS))
    method = Field(TEXT)
    agreed_with_reported = Field(BOOLEAN)
    gap_flag = Field(BOOLEAN, default=False)

    @property
    def positions(self) -> Positions:
        """The position columns, as a Positions table."""
        return Positions(*self.columns()[:len(Positions.fields)])

    @staticmethod
    def row(*values) -> ValidatedMessage:
        n = len(Positions.fields)
        return ValidatedMessage(Positions.row(*values[:n]), *values[n:])
