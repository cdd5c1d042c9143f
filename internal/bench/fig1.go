package bench

// The Figure 1 pages at the HTML level (as in internal/wrapper's tests):
// two training layouts, a novel redesign the maximized wrapper still parses,
// and a future redesign it cannot — the territory of re-induction from a
// newly marked sample (Section 7), which E19 drives through the server.
const (
	fig1Top = `<P>
<H1>Virtual Supplier, Inc.</H1>
<P>
<form method="post" action="search.cgi">
<input type="image" align="left" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<br />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form>`

	fig1Bottom = `<table>
<tr><th><img src="supplier.gif"></th></tr>
<tr><td><h1>Virtual Supplier, Inc.</h1></td></tr>
<tr><td><a href="cust.html">Customer Service</a></td></tr>
<tr><td><form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form></td></tr>
</table>`

	fig1Novel = `<table>
<tr><td><h1>Virtual Supplier, Inc.</h1></td></tr>
<tr><td><a href="deals.html">Hot Deals</a></td></tr>
<tr><td><a href="cust.html">Customer Service</a></td></tr>
<tr><td><form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" />
<input type="radio" name="attr" value="1"> Keywords
</form></td></tr>
</table>`

	fig1Future = `<div class="search"><span>find parts</span>
<form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
</form></div>`
)
